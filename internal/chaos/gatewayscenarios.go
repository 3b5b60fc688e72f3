package chaos

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/spec"
)

// gatewayTopic builds the gateway scenarios' standard topic: a real loss
// tolerance Li (the per-client shed/evict budget under test) and enough
// retention for the load window.
func gatewayTopic(id spec.TopicID, li int) spec.Topic {
	return spec.Topic{
		ID:            id,
		Category:      -1,
		Period:        20 * time.Millisecond,
		Deadline:      time.Second,
		LossTolerance: li,
		Retention:     64,
		Destination:   spec.DestEdge,
		PayloadSize:   16,
	}
}

func gatewayTopics(n, li int) []spec.Topic {
	out := make([]spec.Topic, n)
	for i := range out {
		out[i] = gatewayTopic(spec.TopicID(i+1), li)
	}
	return out
}

// GatewayAll returns every shipped gateway-level scenario. Names are
// stable — CI artifacts and replay commands reference them.
func GatewayAll() []GatewayScenario {
	return []GatewayScenario{
		gatewayCrash(),
		gatewaySlowClient(),
	}
}

// GatewayFind returns the named gateway scenario.
func GatewayFind(name string) (GatewayScenario, error) {
	for _, sc := range GatewayAll() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return GatewayScenario{}, fmt.Errorf("chaos: unknown gateway scenario %q", name)
}

// gatewayCrash fail-stops the gateway mid-stream and restarts it 140ms
// later, the way an orchestrator would. The publisher keeps driving the
// brokers directly the whole time, so the outage window turns into a gap
// the thin clients must absorb: reconnect automatically, resume the
// stream, and keep the per-topic consecutive loss inside Li — while the
// durability plane records zero publish errors and no promotion.
func gatewayCrash() GatewayScenario {
	return GatewayScenario{
		Name:        "gateway-crash",
		Description: "kill and restart the gateway mid-stream; thin clients reconnect within Li, brokers never notice",
		Smoke:       true,
		Topics:      gatewayTopics(4, 256),
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Clients: []GatewayClient{
			{Name: "phone-a", MaxConsecutiveLoss: 256, AllowedRewinds: 2},
			{Name: "phone-b", MaxConsecutiveLoss: 256, AllowedRewinds: 2},
		},
		Script: []GatewayStep{
			{At: 120 * time.Millisecond, Desc: "crash the gateway", Do: CrashGateway()},
			{At: 260 * time.Millisecond, Desc: "restart the gateway", Do: RestartGateway()},
		},
		Check: func(e *GatewayEnv) []string {
			var v []string
			for name, sub := range e.Clients {
				if sub.Reconnects() == 0 {
					v = append(v, fmt.Sprintf("client %s never reconnected across the gateway restart", name))
				}
			}
			return v
		},
	}
}

// gatewaySlowClient wedges one phone — it subscribes, then its downlink
// stalls behind a tiny write buffer and it never reads — while two healthy
// clients and the brokers carry full load. The wedged client's private
// ring must absorb the backpressure: the gateway sheds within the topics'
// Li budget and evicts the client past it, the healthy clients take every
// message with strict FIFO, and the broker-side egress never sheds a
// frame (the runner asserts that part for every scenario).
func gatewaySlowClient() GatewayScenario {
	return GatewayScenario{
		Name:        "gateway-slow-client",
		Description: "a wedged phone fills its ring; the gateway sheds then evicts it, healthy clients and brokers never notice",
		Smoke:       true,
		Topics:      gatewayTopics(4, 8),
		Load:        Load{Count: 150, Interval: 2 * time.Millisecond, PayloadSize: 16},
		ClientDepth: 32,
		// Mem pipes block on an unread write; the wedged flush is handed
		// off after 2 ms, and the stall bound then fails it.
		ClientWriteTimeout: 200 * time.Millisecond,
		Clients: []GatewayClient{
			{Name: "healthy-a", RequireAll: true, MaxConsecutiveLoss: 0, AllowedRewinds: 0},
			{Name: "healthy-b", RequireAll: true, MaxConsecutiveLoss: 0, AllowedRewinds: 0},
			{Name: "wedge", Wedged: true},
		},
		Script: []GatewayStep{
			{At: 0, Desc: "stall gateway->wedge behind a 4KiB buffer",
				Do: GatewaySetLink(NodeGateway, "wedge", faultinject.Faults{Stall: true, WriteBufferBytes: 4 << 10})},
		},
		Check: func(e *GatewayEnv) []string {
			var v []string
			gw := e.Gateway()
			es := gw.EgressStats()
			if es.Shed == 0 {
				v = append(v, "gateway never shed for the wedged client — the ring should have filled")
			}
			if gw.Evictions() == 0 {
				v = append(v, "gateway never evicted the wedged client past its Li budget")
			}
			if gw.Clients() != 2 {
				v = append(v, fmt.Sprintf("%d clients still attached, want exactly the 2 healthy ones", gw.Clients()))
			}
			return v
		},
	}
}
