package transport

import "dgs/internal/telemetry"

// tmet holds the package's telemetry handles, resolved once at package
// init so the exchange hot paths perform only atomic updates. Everything
// registers against the default registry: a process that never starts the
// telemetry HTTP endpoint pays a handful of atomic adds and nothing else.
var tmet = struct {
	exchangeSeconds *telemetry.Histogram
	handlerSeconds  *telemetry.Histogram
	exchangeErrors  *telemetry.Counter
	retries         *telemetry.Counter
	dials           *telemetry.Counter

	sessExchanges    *telemetry.Counter
	sessReplays      *telemetry.Counter
	sessHellos       *telemetry.Counter
	sessReaderHellos *telemetry.Counter
	sessStale        *telemetry.Counter
	sessBadSeq       *telemetry.Counter
	sessResets       *telemetry.Counter
	sessReplayBytes  *telemetry.Gauge

	faultDropBefore *telemetry.Counter
	faultDropAfter  *telemetry.Counter
	faultDuplicate  *telemetry.Counter
	faultReset      *telemetry.Counter
	faultDelay      *telemetry.Counter
	faultRestart    *telemetry.Counter

	muxSubmits      *telemetry.Counter
	pipeReplayed    *telemetry.Counter
	pipeCommSeconds *telemetry.Gauge
}{}

func init() {
	reg := telemetry.Default()
	tmet.exchangeSeconds = reg.Histogram("dgs_transport_exchange_seconds",
		"Client-side latency of successful exchange round trips.",
		telemetry.DurationBuckets())
	tmet.handlerSeconds = reg.Histogram("dgs_transport_handler_seconds",
		"Server-side latency of handler invocations (decode, push, encode).",
		telemetry.DurationBuckets())
	tmet.exchangeErrors = reg.Counter("dgs_transport_exchange_errors_total",
		"Client-side exchange failures (network faults and server rejections).")
	tmet.retries = reg.Counter("dgs_transport_retries_total",
		"Exchange attempts beyond the first in the session client.")
	tmet.dials = reg.Counter("dgs_transport_dials_total",
		"Connections established by the session client.")

	tmet.sessExchanges = reg.Counter("dgs_session_exchanges_total",
		"Session frames executed against the handler exactly once.")
	tmet.sessReplays = reg.Counter("dgs_session_replays_total",
		"Retried frames answered from the replay cache without re-execution.")
	tmet.sessHellos = reg.Counter("dgs_session_hellos_total",
		"New worker incarnations adopted (resyncs triggered).")
	tmet.sessReaderHellos = reg.Counter("dgs_session_reader_hellos_total",
		"Adopted incarnations that declared the read-session role (diff-fed replicas, evaluators).")
	tmet.sessStale = reg.Counter("dgs_session_stale_rejected_total",
		"Frames fenced off for carrying a superseded session.")
	tmet.sessBadSeq = reg.Counter("dgs_session_badseq_total",
		"Frames rejected for unorderable sequence numbers.")
	tmet.sessResets = reg.Counter("dgs_session_resets_total",
		"Incarnation resets fencing every downstream session (upstream restarts).")
	tmet.sessReplayBytes = reg.Gauge("dgs_session_replay_bytes",
		"Capacity of the encoded responses the exactly-once replay caches retain.")

	fault := func(kind, help string) *telemetry.Counter {
		return reg.Counter("dgs_transport_injected_faults_total", help, "kind", kind)
	}
	help := "Faults injected by the chaos decorator, by kind."
	tmet.faultDropBefore = fault("drop_before", help)
	tmet.faultDropAfter = fault("drop_after", help)
	tmet.faultDuplicate = fault("duplicate", help)
	tmet.faultReset = fault("reset", help)
	tmet.faultDelay = fault("delay", help)
	tmet.faultRestart = fault("server_restart", help)

	tmet.muxSubmits = reg.Counter("dgs_mux_submits_total",
		"Request frames written by mux (wire-v2) clients.")
	tmet.pipeReplayed = reg.Counter("dgs_pipeline_replayed_frames_total",
		"In-flight frames re-sent after a pipelined session reconnect.")
	// Shared identity with the trainer package, which derives the
	// overlap-efficiency gauge from this total and its own blocked time.
	tmet.pipeCommSeconds = reg.Gauge("dgs_pipeline_comm_seconds_total",
		"Cumulative seconds exchanges spent in flight on the pipelined path.")
}
