package protocol

// Stats is the MsgStatsResult payload: one snapshot of a server's counters
// and gauges. StatFields documents every uint64 field.
type Stats struct {
	// Server: sessions, admission and requests.
	ActiveSessions, ActiveTxns, QueuedConns, Accepted, RejectedBusy uint64
	Requests, Commits, Conflicts, ExpiredTxns                       uint64
	// Engine: commits, WAL, plan cache and MVCC residency.
	DBCommits, DBConflicts, Checkpoints, WALSyncs, CommitSeq uint64
	PlanCacheHits, PlanCacheMisses, PlanCacheSize            uint64
	VacuumRuns, VacuumDropped, HistoryFloor                  uint64
	ResidentVersions, MaxChainLength                         uint64
	// Replication and failover.
	IsReplica, AppliedSeq, PrimarySeq, ReplLag, ReplConnected uint64
	Subscribers, StreamedCommits, QuorumStalls, Epoch, Fenced uint64
	// Provenance tracer and span tracing.
	TracerEvents, TracerDrops, TracerFlushes             uint64
	SpanTracesStarted, SpanTracesKept, SpanTracesSampled uint64
	SpanStoreInserted, SpanStoreDropped                  uint64

	// SubscriberLags describes each live replication stream the node serves
	// (a primary's per-subscriber view); empty on replicas and on primaries
	// with no subscribers.
	SubscriberLags []SubscriberLag
}

// noStats is what a MsgStatsResult with a nil Stats encodes: all zeroes.
// Never written.
var noStats Stats

// StatKind says how a Stats field is exported.
type StatKind uint8

const (
	// StatCounter is a monotonic total.
	StatCounter StatKind = iota
	// StatGauge is a current level.
	StatGauge
	// StatFlag is a 0/1 gauge, shown as false/true by trod-query -stats.
	StatFlag
)

// Type is the kind's Prometheus metric type.
func (k StatKind) Type() string {
	if k == StatCounter {
		return "counter"
	}
	return "gauge"
}

// StatField describes one Stats field on every surface that shows it: Key
// is its trod-query -stats name, Family its /metrics series, Field selects
// it in a Stats value.
type StatField struct {
	Key    string
	Family string
	Kind   StatKind
	Field  func(*Stats) *uint64
	Help   string
}

// StatFields lists every Stats counter once. Its order is the wire order of
// MsgStatsResult and the order trod-query -stats prints in.
var StatFields = []StatField{
	{"active_sessions", "trod_server_active_sessions", StatGauge, func(s *Stats) *uint64 { return &s.ActiveSessions },
		"Sessions currently being served."},
	{"active_txns", "trod_server_active_txns", StatGauge, func(s *Stats) *uint64 { return &s.ActiveTxns },
		"Interactive transactions currently open."},
	{"queued_conns", "trod_server_queued_conns", StatGauge, func(s *Stats) *uint64 { return &s.QueuedConns },
		"Connections waiting in the admission queue."},
	{"accepted", "trod_server_accepted_total", StatCounter, func(s *Stats) *uint64 { return &s.Accepted },
		"Connections admitted as sessions."},
	{"rejected_busy", "trod_server_rejected_busy_total", StatCounter, func(s *Stats) *uint64 { return &s.RejectedBusy },
		"Connections refused with a typed busy error (queue full or queue-wait timeout)."},
	{"requests", "trod_server_requests_total", StatCounter, func(s *Stats) *uint64 { return &s.Requests },
		"Protocol requests served (every frame, transaction control included)."},
	{"commits", "trod_server_commits_total", StatCounter, func(s *Stats) *uint64 { return &s.Commits },
		"Client-visible commits acknowledged (interactive commits and writing autocommit statements)."},
	{"conflicts", "trod_server_conflicts_total", StatCounter, func(s *Stats) *uint64 { return &s.Conflicts },
		"Requests answered with a typed serialization-conflict error."},
	{"expired_txns", "trod_server_expired_txns_total", StatCounter, func(s *Stats) *uint64 { return &s.ExpiredTxns },
		"Interactive transactions rolled back by the server-side deadline."},

	{"db_commits", "trod_db_commits_total", StatCounter, func(s *Stats) *uint64 { return &s.DBCommits },
		"Write commits applied by the engine (all paths, internal writers and autocommit retries counted once each)."},
	{"db_conflicts", "trod_db_conflicts_total", StatCounter, func(s *Stats) *uint64 { return &s.DBConflicts },
		"Commit attempts aborted by OCC serialization-conflict validation; over db_commits, the true conflict rate."},
	{"checkpoints", "trod_db_checkpoints_total", StatCounter, func(s *Stats) *uint64 { return &s.Checkpoints },
		"Completed checkpoint runs."},
	{"wal_syncs", "trod_wal_syncs_total", StatCounter, func(s *Stats) *uint64 { return &s.WALSyncs },
		"WAL fsyncs issued; stays below commit count while group commit batches."},
	{"plan_cache_hits", "trod_db_plan_cache_hits_total", StatCounter, func(s *Stats) *uint64 { return &s.PlanCacheHits },
		"Statement executions that reused a cached physical plan."},
	{"plan_cache_misses", "trod_db_plan_cache_misses_total", StatCounter, func(s *Stats) *uint64 { return &s.PlanCacheMisses },
		"Plan compilations: first executions plus schema-epoch invalidations."},
	{"plan_cache_size", "trod_db_plan_cache_size", StatGauge, func(s *Stats) *uint64 { return &s.PlanCacheSize },
		"Query texts currently cached."},
	{"commit_seq", "trod_db_commit_seq", StatGauge, func(s *Stats) *uint64 { return &s.CommitSeq },
		"Current commit sequence."},
	{"vacuum_runs", "trod_db_vacuum_runs_total", StatCounter, func(s *Stats) *uint64 { return &s.VacuumRuns },
		"MVCC vacuum runs (per checkpoint under HistoryRetention, plus explicit calls)."},
	{"vacuum_dropped", "trod_db_vacuum_dropped_versions_total", StatCounter, func(s *Stats) *uint64 { return &s.VacuumDropped },
		"Row and index versions dropped by vacuum."},
	{"history_floor", "trod_db_history_floor_seq", StatGauge, func(s *Stats) *uint64 { return &s.HistoryFloor },
		"Oldest commit sequence still readable by time travel (vacuum/restart floor)."},
	{"resident_versions", "trod_db_resident_versions", StatGauge, func(s *Stats) *uint64 { return &s.ResidentVersions },
		"Row versions currently resident in version chains."},
	{"max_chain_length", "trod_db_max_chain_length", StatGauge, func(s *Stats) *uint64 { return &s.MaxChainLength },
		"Longest row version chain."},

	{"is_replica", "trod_repl_is_replica", StatFlag, func(s *Stats) *uint64 { return &s.IsReplica },
		"1 while the node serves as a read-only replica; 0 on a primary, a promoted replica included."},
	{"applied_seq", "trod_repl_applied_seq", StatGauge, func(s *Stats) *uint64 { return &s.AppliedSeq },
		"Commit sequence this replica has applied."},
	{"primary_seq", "trod_repl_primary_seq", StatGauge, func(s *Stats) *uint64 { return &s.PrimarySeq },
		"Newest primary commit sequence this replica has heard of."},
	{"replication_lag", "trod_repl_lag_seqs", StatGauge, func(s *Stats) *uint64 { return &s.ReplLag },
		"Commits this replica trails the newest primary sequence it has heard of."},
	{"replication_connected", "trod_repl_connected", StatFlag, func(s *Stats) *uint64 { return &s.ReplConnected },
		"1 while the replica's subscription to its primary is live."},
	{"subscribers", "trod_repl_subscribers", StatGauge, func(s *Stats) *uint64 { return &s.Subscribers },
		"Live replication subscriber streams served."},
	{"streamed_commits", "trod_repl_streamed_commits_total", StatCounter, func(s *Stats) *uint64 { return &s.StreamedCommits },
		"Commit records shipped to subscribers, summed over all streams."},
	{"quorum_stalls", "trod_repl_quorum_stalls_total", StatCounter, func(s *Stats) *uint64 { return &s.QuorumStalls },
		"Commits whose replica-quorum acknowledgement timed out (typed quorum-unavailable)."},
	{"epoch", "trod_repl_epoch", StatGauge, func(s *Stats) *uint64 { return &s.Epoch },
		"The node's replication epoch (bumped by every promotion)."},
	{"fenced", "trod_repl_fenced", StatFlag, func(s *Stats) *uint64 { return &s.Fenced },
		"1 when the node observed a higher epoch and refuses writes and subscribers."},

	{"tracer_events", "trod_tracer_events_total", StatCounter, func(s *Stats) *uint64 { return &s.TracerEvents },
		"Provenance events captured by the interposition layer."},
	{"tracer_drops", "trod_tracer_drops_total", StatCounter, func(s *Stats) *uint64 { return &s.TracerDrops },
		"Provenance events dropped because the buffer was full (MaxBuffered)."},
	{"tracer_flushes", "trod_tracer_flushes_total", StatCounter, func(s *Stats) *uint64 { return &s.TracerFlushes },
		"Batches flushed to the provenance database."},

	{"span_traces_started", "trod_span_traces_started_total", StatCounter, func(s *Stats) *uint64 { return &s.SpanTracesStarted },
		"Completed traced requests offered a tail-sampling decision."},
	{"span_traces_kept", "trod_span_traces_kept_total", StatCounter, func(s *Stats) *uint64 { return &s.SpanTracesKept },
		"Traces kept by tail sampling (errors, conflicts, over-threshold, and the probabilistic sample)."},
	{"span_traces_sampled_out", "trod_span_traces_sampled_out_total", StatCounter, func(s *Stats) *uint64 { return &s.SpanTracesSampled },
		"Traces dropped by the probabilistic tail sampler."},
	{"span_store_inserted", "trod_span_store_inserted_total", StatCounter, func(s *Stats) *uint64 { return &s.SpanStoreInserted },
		"Kept traces written to the trod_spans system table."},
	{"span_store_dropped", "trod_span_store_dropped_total", StatCounter, func(s *Stats) *uint64 { return &s.SpanStoreDropped },
		"Kept traces dropped before reaching trod_spans (writer queue full or insert failure)."},
}

// SubscriberLag is one subscriber's replication progress as seen by the
// primary: the newest commit sequence it acknowledged, how many commits it
// trails the primary's head by, and how long ago it last acked (heartbeat
// acks keep this fresh on an idle stream).
type SubscriberLag struct {
	AckedSeq     uint64
	LagSeqs      uint64
	LastAckAgeMs uint64
}
