package main

// metricDef names one reported number. from says which run produces it:
// a workload, or "ladder" for the per-layer probes, or "run" for what the
// runner itself derives.
type metricDef struct {
	name, unit, better string
	from               string
	what               string
}

// The four workloads. Only the first three are in BENCHMARK.json: every
// number kv_closed_mix produces is processor-bound and swings with the
// shared host's speed, so it is run as a per-layer probe and on request,
// never as a gate (README, "Why kv_closed_mix is not gated").
const (
	wSAN      = "san_paced_mix"
	wFailover = "kv_failover_open"
	wSim      = "sim_campaign"
	wClosed   = "kv_closed_mix"
)

type workloadDef struct {
	name  string
	gated bool
	run   func(env) (*outcome, error)
	// probe is how many seconds the workload gets when a traced run of
	// another workload needs its per-layer numbers.
	probe float64
	why   string
}

var workloads = []workloadDef{
	{wSAN, true, runSAN, 3,
		"injected 200-300us disk delay: Put latency is the delay times the register accesses per commit, whatever the host's speed; serial then paced"},
	{wFailover, true, runFailover, 3,
		"leader crash under a 500/s open loop: time without service is set by detection, re-election and lease timers"},
	{wSim, true, runSim, 3,
		"recorded, checked runs on the virtual clock: what simulated clients wait is exact for a seed; live engine and SAN bypassed"},
	{wClosed, false, runClosed, 3,
		"processor path, closed loop at GOMAXPROCS=1: swings with host speed, so per-layer only"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd lists what every gated workload reports on an untraced run.
// Each is either set by a timer, an injected delay or the virtual clock,
// or is a count; none is a processor-bound wall-clock time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "run",
		"time before the first measured operation: build, Start, agreement, store, warm-up; median over the run's slices (failover: summed over a slice's episodes)"},
	{"wait_p50_ms", "ms", "lower", "run",
		"median wait for service. san: serial Put, closed loop. failover: Crash call to the first completed Put due after it. sim: longest gap between commits in a run, virtual ms, interquartile mean over the runs (their median is one whole tick count in every run)"},
	{"ok_share", "share", "higher", "run",
		"operations that returned nil within the limit (1s from due; 5s on the SAN) and passed the correctness oracle, over operations attempted; sim: runs with no violation over runs"},
	{"heap_live_mb", "MB", "lower", "run",
		"HeapAlloc after a forced GC at the end of the last slice, store still open; sim: holding the fixed slices' recorded results"},
	{"allocs_per_op", "count", "lower", "run",
		"heap objects allocated inside the measured windows per client operation (sim: per recorded and verified run), background election and lease traffic included"},
}

// perLayer lists what a traced run reports. Times here are processor-bound
// unless their name says san, failover or dark/detect/reagree/resume.
var perLayer = []metricDef{
	{"shmem.atomic_load_ns", "ns", "lower", "ladder", "one Read of an uncounted AtomicMem register"},
	{"shmem.atomic_store_ns", "ns", "lower", "ladder", "one Write of an uncounted AtomicMem register"},
	{"shmem.census_access_ns", "ns", "lower", "ladder", "one access of an instrumented AtomicMem register"},
	{"shmem.reg_reads_per_write", "count", "lower", "ladder", "register reads per committed serial Put, atomic substrate, census on"},
	{"shmem.reg_writes_per_write", "count", "lower", "ladder", "register writes per committed serial Put, atomic substrate, census on"},
	{"shmem.idle_accesses_per_s", "1/s", "lower", "ladder", "register accesses per second of an idle SAN store: election and lease upkeep"},
	{"shmem.nonleader_write_share", "share", "lower", "ladder", "share of register writes by non-leaders once the election has settled (the paper's write-efficiency)"},
	{"san.quorum_write_us", "us", "lower", "ladder", "one DiskMem register Write at the SAN workload's disk latency"},
	{"san.quorum_read_us", "us", "lower", "ladder", "one DiskMem register Read at the SAN workload's disk latency"},
	{"san.accesses_per_write", "count", "lower", "ladder", "register accesses inside a Put's window on the SAN, per Put"},
	{"san.paced_write_p50_us", "us", "lower", wSAN, "median Put latency from its due time in the paced, open-loop half"},
	{"san.paced_write_p90_us", "us", "lower", wSAN, "90th percentile of the same"},
	{"san.paced_read_p50_us", "us", "lower", wSAN, "median Read(ReadQuorum) latency from its due time in the paced half"},
	{"rt.agreement_ms", "ms", "lower", "ladder", "Start to WaitForAgreement on a fresh atomic cluster"},
	{"rt.leader_query_ns", "ns", "lower", "ladder", "one Cluster.AgreedLeader"},
	{"core.detect_ms", "ms", "lower", wFailover, "crash to the first live process whose Leader differs from the crashed one (1ms poller)"},
	{"rt.reagree_ms", "ms", "lower", wFailover, "from detection to AgreedLeader naming a live process"},
	{"kv.resume_ms", "ms", "lower", wFailover, "from re-agreement to the first commit"},
	{"failover.outage_p90_ms", "ms", "lower", wFailover, "90th percentile over the episodes of the time without service; one slow episode in ten moves it"},
	{"core.leader_changes_per_crash", "count", "lower", wFailover, "agreed-leader changes seen by Watch per crash; above 1 is a needless election"},
	{"core.step_ns", "ns", "lower", "ladder", "one T2 step of the write-efficient algorithm, n=3"},
	{"consensus.decide_us", "us", "lower", "ladder", "one uncontended three-process instance stepped by its leader to a decision"},
	{"consensus.log_cmds_per_s", "1/s", "higher", "ladder", "commands per second through three replicas stepped in a bare loop, batch 32"},
	{"consensus.batch_fill", "count", "higher", wClosed, "commands applied per slot decided over the PutAll phase (batch size 32)"},
	{"consensus.ckpt_per_kwrite", "count", "lower", wClosed, "checkpoints per thousand committed writes"},
	{"consensus.dup_commit_share", "share", "lower", wFailover, "commands applied beyond those acknowledged, over commands applied: resubmission and barrier overhead"},
	{"consensus.catchup_us", "us", "lower", "ladder", "a replica held back 32 windows of a 4096-key store, stepped until it has installed the snapshot and caught up"},
	{"lease.read_ns", "ns", "lower", "ladder", "one Read(ReadLease) on an idle store, GOMAXPROCS=1"},
	{"lease.quorum_read_us", "us", "lower", "ladder", "one Read(ReadQuorum) on an idle atomic store"},
	{"lease.dark_ms", "ms", "lower", wFailover, "crash to LeaseHolder naming a live process again"},
	{"engine.live_notify_step_us", "us", "lower", "ladder", "Notify of a parked machine to its Step being entered, GOMAXPROCS=1"},
	{"engine.live_notify_step_mp_us", "us", "lower", "ladder", "the same with every processor"},
	{"engine.sim_events_per_s", "1/s", "higher", "ladder", "steps per second of trivial machines under engine.Sim"},
	{"kv.writes_per_s", "1/s", "higher", wClosed, "serial Puts over time spent in the serial phase"},
	{"kv.batch_writes_per_s", "1/s", "higher", wClosed, "entries committed by PutAll over time spent in the PutAll phase"},
	{"kv.reads_per_s", "1/s", "higher", wClosed, "verified lease reads over time spent in the read phase"},
	{"kv.write_p50_us", "us", "lower", wClosed, "median serial Put latency"},
	{"kv.put_p99_us", "us", "lower", wClosed, "99th percentile serial Put latency"},
	{"kv.gc_cycles_per_s", "1/s", "lower", wClosed, "garbage collections per second of the measured windows"},
	{"kv.put_allocs", "count", "lower", "ladder", "heap objects per serial Put"},
	{"kv.put_bytes", "B", "lower", "ladder", "heap bytes per serial Put"},
	{"kv.put_mp_p50_us", "us", "lower", "ladder", "median serial Put latency with every processor: the cross-thread hand-off"},
	{"kv.open_2k_p50_us", "us", "lower", "ladder", "median write latency from due, 2000 requests/s Poisson mix through load.RunLive"},
	{"kv.open_2k_p99_us", "us", "lower", "ladder", "99th percentile of the same"},
	{"kv.san_putall16_us", "us", "lower", "ladder", "one PutAll of sixteen entries on the SAN"},
	{"sharded.multiput_us_per_write", "us", "lower", "ladder", "MultiPut of 64 entries over two shards, per entry"},
	{"fleet.leader_query_ns", "ns", "lower", "ladder", "one Fleet.Leader"},
	{"load.san_late_p99_us", "us", "lower", wSAN, "how late the paced generator sent, 99th percentile; above 1% of san.paced_write_p50_us those latencies are suspect"},
	{"load.failover_late_p99_us", "us", "lower", wFailover, "the same for the failover generator (a stalled Put makes its successors late by design)"},
	{"sim.runs_per_s", "1/s", "higher", wSim, "recorded and verified runs per second, upper quartile over slices"},
	{"sim.stall_p90_ms", "ms", "lower", wSim, "90th percentile over the fixed runs of the longest gap between commits, virtual ms; exact for a seed"},
	{"sim.simkv_ms_per_run", "ms", "lower", wSim, "SimKV's part of a run"},
	{"check.verify_ms_per_run", "ms", "lower", wSim, "Verify's part of a run"},
	{"sim.fixtures_replay_ms", "ms", "lower", "ladder", "Replay of the committed scenarios under testdata/scenarios"},
	{"sim.campaign_runs_per_s", "1/s", "higher", "ladder", "RunCampaign over the default grid, one seed per point"},
	{"sim.commits_total", "count", "higher", wSim, "commands committed over the fixed slices; exact for a seed"},
	{"sim.leader_changes_total", "count", "lower", wSim, "agreed-leader changes over the fixed slices; exact for a seed"},
	{"sim.near_miss_runs", "count", "lower", wSim, "runs with a near-miss over the fixed slices; exact for a seed"},
	{"sim.undecided_total", "count", "lower", wSim, "linearization searches that hit the state cap; exact for a seed"},
	{"sim.history_hash48", "count", "higher", wSim, "48 bits of the chained sha256 over every recorded history; exact for a seed, direction meaningless"},
	{"trace.overhead_pct", "%", "lower", "run", "change of the named workload's wait_p50_ms with tracing on, against the same run with it off"},
}
