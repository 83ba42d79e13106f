package trainer

import (
	"time"

	"dgs/internal/transport"
)

// DialOptions configures NewDialStack, the canonical client transport stack
// shared by `dgs worker`, the benchmark, and anything else that speaks to
// a `dgs server` or `dgs agg` endpoint as a worker.
type DialOptions struct {
	// Addr is the server or aggregator endpoint.
	Addr string
	// Pipeline is the in-flight exchange depth (0 and 1 both mean the
	// synchronous exchange).
	Pipeline int
	// Retries / Backoff / MaxBackoff shape the redial policy. Zero values
	// keep the transport defaults.
	Retries    int
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Timeout is the per-exchange deadline (0 disables).
	Timeout time.Duration
	// Faults, when non-nil, wraps every link the session dials in the seeded
	// chaos decorator, at any Pipeline depth. Each dial advances the seed so
	// a redialled link draws a fresh fault schedule.
	Faults *transport.FaultConfig
}

// NewDialStack builds the worker-side transport dialer. Every call of the
// returned function is one worker incarnation: a PipelinedSession (the
// exactly-once envelope, redial with replay of the in-flight window) over
// wire-v2 mux links with a per-exchange deadline, each link optionally
// wrapped in Faulty. A fresh incarnation's hello makes the server resync
// the worker id and ship a dense snapshot.
func NewDialStack(opts DialOptions) func() (transport.Transport, error) {
	dials := uint64(0)
	return func() (transport.Transport, error) {
		ps := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
			c, err := transport.DialMux(opts.Addr)
			if err != nil {
				return nil, err
			}
			c.ExchangeTimeout = opts.Timeout
			if opts.Faults == nil {
				return c, nil
			}
			dials++
			fc := *opts.Faults
			fc.Seed += dials
			return transport.NewFaulty(c, fc), nil
		}, opts.Pipeline)
		if opts.Retries > 0 {
			ps.MaxRetries = opts.Retries
		}
		if opts.Backoff > 0 {
			ps.Backoff = opts.Backoff
		}
		if opts.MaxBackoff > 0 {
			ps.MaxBackoff = opts.MaxBackoff
		}
		return ps, nil
	}
}
