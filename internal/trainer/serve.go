package trainer

import (
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/transport"
)

// ServerConfig returns the ps.Config for the method: ASGD downloads the
// whole model; the sparse methods download M − v_k, under Eq. 6 when
// cfg.Secondary is set; for single-node MSGD the downward content is
// irrelevant and stays sparse.
func ServerConfig(cfg *Config, sizes []int) ps.Config {
	sc := ps.Config{LayerSizes: sizes, Workers: cfg.Workers, DenseDownward: cfg.Method == ASGD}
	if cfg.Method != ASGD && cfg.Method != MSGD {
		sc.Secondary, sc.SecondaryRatio = cfg.Secondary, cfg.SecondaryRatio
	}
	return sc
}

// NewServer builds the parameter server of cfg's run for a model of the
// given layer sizes: ServerConfig's server, resumed from restore when it is
// not nil. The dirty-tracking block size is auto-tuned, or on a restore the
// file's own.
func NewServer(cfg *Config, sizes []int, restore *checkpoint.State) (*ps.Server, error) {
	sc := ServerConfig(cfg, sizes)
	if restore != nil {
		return ps.RestoreServer(sc, restore)
	}
	return ps.NewServer(sc), nil
}

// ServeOptions are the deployment settings of a served parameter server.
type ServeOptions struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// MaxInflight bounds the concurrently executing pushes (0 = unbounded);
	// an excess push is answered with a RetryAfter frame carrying
	// RetryHint, and a push during a drain one carrying DrainHint.
	MaxInflight          int
	RetryHint, DrainHint time.Duration
	// Timeout is the per-exchange deadline (0 disables).
	Timeout time.Duration
}

// Endpoint is a served parameter server: its layers, innermost first, and
// its traffic.
type Endpoint struct {
	// Sessions is the exactly-once session layer: replays, resyncs and the
	// read-session role.
	Sessions *transport.ExactlyOnce
	// Gate is the admission gate in front of the sessions; Gate.Drain is a
	// graceful shutdown.
	Gate *transport.Gate
	// TCP is the listener; closing it stops the endpoint.
	TCP *transport.TCPServer
	// Traffic counts the encoded update bytes of every executed exchange,
	// without session or framing headers; replays are answered from cache
	// and not counted.
	Traffic *transport.Traffic
}

// Serve puts server behind the one deployed stack — the codec handler,
// exactly-once sessions, the admission gate and a TCP listener with a
// per-exchange deadline — and starts listening. `dgs server`, Run over TCP
// and the tests all serve through it.
func Serve(server ps.Pusher, o ServeOptions) (*Endpoint, error) {
	h := newCodecHandler(server)
	ep := &Endpoint{Sessions: h.sessions(), Traffic: &h.metrics.traffic}
	ep.Gate = transport.NewGate(ep.Sessions.Handle, o.MaxInflight)
	ep.Gate.RetryHint, ep.Gate.DrainHint = o.RetryHint, o.DrainHint
	var err error
	if ep.TCP, err = transport.ListenTCP(o.Addr, ep.Gate.Handle); err != nil {
		return nil, err
	}
	ep.TCP.SetExchangeTimeout(o.Timeout)
	return ep, nil
}
