package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/spec"
)

// proxy is one of the paper's §VI publisher proxies: it owns a set of topics
// of one period and publishes one message for each of them in a burst, once
// per period.
type proxy struct {
	nominal time.Duration // Ti of its topics
	// period is the proxy's actual inter-burst time: Ti stretched by up to
	// periodStretch, drawn from the seed. Equal periods would repeat one
	// pattern of burst collisions for a whole run, and the latency of a run
	// would depend on its seed's pattern; unequal ones drift through the
	// patterns. Ti is a minimum inter-creation time, so a longer one is
	// within the paper's sporadic model.
	period time.Duration
	phase  time.Duration // due time of the first burst, drawn from the seed
	topics []spec.TopicID
}

// periodStretch is the largest share by which a proxy's period exceeds Ti.
// At one in a hundred two proxies drift apart by up to 1 ms per 100 ms
// cycle, twice the time a 50-message burst takes the reference box.
const periodStretch = 100

// burst is one scheduled arrival: proxy publishes all its topics at due,
// measured from the start of traffic.
type burst struct {
	due   time.Duration
	proxy int
}

// topicsPerProxy is the paper's proxy fan-in: 10 topics at Ti = 50 ms, 50 at
// 100 ms, 5 at 500 ms.
func topicsPerProxy(period time.Duration) int {
	switch {
	case period <= 50*time.Millisecond:
		return spec.TopicsPerFastProxy
	case period <= 100*time.Millisecond:
		return spec.TopicsPerSensorProxy
	default:
		return 5
	}
}

// buildProxies groups topics of equal period, in topic order, into proxies
// and draws each proxy's phase from rng.
func buildProxies(topics []spec.Topic, rng *rand.Rand) []proxy {
	var out []proxy
	for _, t := range topics {
		last := len(out) - 1
		if last < 0 || out[last].nominal != t.Period || len(out[last].topics) == topicsPerProxy(t.Period) {
			out = append(out, proxy{
				nominal: t.Period,
				period:  t.Period + time.Duration(rng.Int63n(int64(t.Period)/periodStretch+1)),
				phase:   time.Duration(rng.Int63n(int64(t.Period))),
			})
			last++
		}
		out[last].topics = append(out[last].topics, t.ID)
	}
	return out
}

// buildSchedule lists every burst due before horizon, in due order. The
// schedule is fixed before the run: a slow system cannot slow it.
func buildSchedule(proxies []proxy, horizon time.Duration) []burst {
	var out []burst
	for i, p := range proxies {
		for due := p.phase; due < horizon; due += p.period {
			out = append(out, burst{due: due, proxy: i})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].due != out[b].due {
			return out[a].due < out[b].due
		}
		return out[a].proxy < out[b].proxy
	})
	return out
}

// scheduledMessages counts the messages of bursts with from <= due < to.
func scheduledMessages(proxies []proxy, sched []burst, from, to time.Duration) int {
	n := 0
	for _, b := range sched {
		if b.due >= from && b.due < to {
			n += len(proxies[b.proxy].topics)
		}
	}
	return n
}
