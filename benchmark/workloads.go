package main

// workload is one set of inputs the benchmark runs. Block sizes,
// concurrency and channel counts are part of a workload's definition;
// segment lengths only set how much work one timed sample covers.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why       string
	fabric    fabricKind
	blockSize int
	pull      bool
	// segBlocks is the blocks one session moves; segSessions the
	// sessions of one timed segment; inFlight how many of them the
	// closed loop keeps open at once.
	segBlocks   int64
	segSessions int
	inFlight    int
	// varySizes draws each session's payload from the seed, uniform in
	// [1 KiB, payload capacity], rather than moving segBlocks whole
	// blocks.
	varySizes bool
	// file moves the bytes from one real file to another through the
	// storage engine rather than from and to memory.
	file bool
	// simDepth is the I/O depth of the modeled transfer (fabSim only).
	simDepth int
}

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

var workloads = []workload{
	{
		name: "loop_bulk_1m", fabric: fabNet, blockSize: 1 * mib, segBlocks: 1536, segSessions: 1, inFlight: 1,
		why: "push, 1 MiB blocks over loopback TCP: byte-bound, netfabric framing and placement do most of the work (the paper's mem-to-mem headline)",
	},
	{
		name: "loop_small_8k", fabric: fabNet, blockSize: 8 * kib, segBlocks: 65536, segSessions: 1, inFlight: 1,
		why: "push, 8 KiB blocks over loopback TCP: block-bound, core FSM, wire codec, control SENDs and CQ dispatch dominate",
	},
	{
		name: "loop_pull_64k", fabric: fabNet, blockSize: 64 * kib, pull: true, segBlocks: 16384, segSessions: 1, inFlight: 1,
		why: "pull mode (advert, RDMA READ, READ_DONE), 64 KiB blocks: the same layers used the other way, per-byte and per-block cost both count",
	},
	{
		name: "chan_small_8k", fabric: fabChan, blockSize: 8 * kib, segBlocks: 65536, segSessions: 1, inFlight: 1,
		why: "push, 8 KiB blocks over in-process chanfabric: no kernel and no netfabric, so core, wire and verbs are nearly all of the time",
	},
	{
		name: "loop_sessions_32k", fabric: fabNet, blockSize: 64 * kib, segBlocks: 1, segSessions: 16384, inFlight: 16, varySizes: true,
		why: "closed loop of 16 concurrent one-block sessions, 1-64 KiB payloads: the control plane (session open, admission, DRR, dataset-complete) per small file",
	},
	{
		name: "file_tmpfs_1m", fabric: fabNet, blockSize: 1 * mib, segBlocks: 256, segSessions: 1, inFlight: 1, file: true,
		why: "file to file through storage.FileSource and FileSink, 1 MiB blocks: the only workload where storage works and the offset-store path runs",
	},
	{
		name: "sim_wan_900g", fabric: fabSim, blockSize: 4 * mib, segBlocks: 230400, segSessions: 1, inFlight: 1, simDepth: 64,
		why: "900 GiB modeled over simfabric's 49 ms WAN in virtual time: core over the simulator, single-threaded, nothing of netfabric or storage runs",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
