package trainer

import (
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/transport"
)

// Server is the parameter server a deployment serves and checkpoints; both
// ps.Server and ps.ShardedServer satisfy it.
type Server interface {
	ps.Pusher
	NewCaptureState() *checkpoint.State
	Capture(*checkpoint.State) (checkpoint.CaptureStats, error)
	Timestamp() uint64
}

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
// given layer sizes: ServerConfig's server, partitioned into cfg.Shards
// shards when there are more than one, resumed from restore when it is not
// nil. blockShift sets the dirty-tracking block size (0 auto-tunes it).
func NewServer(cfg *Config, sizes []int, blockShift uint, restore *checkpoint.State) (Server, error) {
	sc := ServerConfig(cfg, sizes)
	sc.BlockShift = blockShift
	switch {
	case restore != nil && cfg.Shards > 1:
		return ps.RestoreShardedServer(sc, cfg.Shards, restore)
	case restore != nil:
		return ps.RestoreServer(sc, restore)
	case cfg.Shards > 1:
		return ps.NewShardedServer(sc, cfg.Shards), nil
	}
	return ps.NewServer(sc), nil
}

// ServeOptions are the deployment settings of a served parameter server.
type ServeOptions struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Policy is the downward codec policy: "" or "mirror" answers each
	// request in its own codec; a codec name forces that codec on every
	// lossy request. Raw requests and drains are answered raw either way
	// (codec.go), so with sbc the only lossy codec "sbc" answers as
	// "mirror" does and "raw" pins the downward direction to exact values.
	// Upward frames of every codec are accepted.
	Policy string
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
	h, err := newCodecHandler(server, o.Policy)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{Sessions: h.sessions(), Traffic: &h.metrics.traffic}
	ep.Gate = transport.NewGate(ep.Sessions.Handle, o.MaxInflight)
	ep.Gate.RetryHint, ep.Gate.DrainHint = o.RetryHint, o.DrainHint
	if ep.TCP, err = transport.ListenTCP(o.Addr, ep.Gate.Handle); err != nil {
		return nil, err
	}
	ep.TCP.SetExchangeTimeout(o.Timeout)
	return ep, nil
}
