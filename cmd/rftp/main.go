// Command rftp is the RFTP client (data source): it connects to an
// rftpd server over the TCP-backed verbs fabric and transfers files
// using the paper's protocol — control messages on a dedicated queue
// pair, bulk payload via RDMA WRITE on parallel data channels, with
// proactive credit flow control.
//
// Usage:
//
//	rftp -server localhost:2811 -channels 2 -block 1M file1 [file2 ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/chanfabric"
	"rftp/internal/fabric/netfabric"
	"rftp/internal/storage"
	"rftp/internal/telemetry"
	"rftp/internal/trace"
	"rftp/internal/verbs"
)

func main() {
	server := flag.String("server", "localhost:2811", "rftpd address")
	channels := flag.Int("channels", 2, "parallel data channel queue pairs (must match the server)")
	blockStr := flag.String("block", "1M", "block size (e.g. 64K, 1M, 4M)")
	depth := flag.Int("depth", 16, "blocks kept in flight")
	loadDepth := flag.Int("load-depth", 0, "file reads kept in flight against storage (0 = -depth)")
	reactors := flag.Int("reactors", 1, "reactor shards driving the data channels, each on its own event loop (clamped to -channels)")
	mrCache := flag.Int("mr-cache", 0, "pin-down cache capacity in memory regions: block pools draw registrations from the cache and release them on close (0 = register directly)")
	zero := flag.String("zero", "", "memory-to-memory benchmark: send SIZE of synthetic zeros instead of files (e.g. -zero 1G)")
	sessions := flag.Int("sessions", 1, "concurrent sessions for -zero: split the payload into N tenant streams multiplexed over the one connection")
	imm := flag.Bool("imm", false, "notify block completions via RDMA WRITE WITH IMMEDIATE instead of control messages")
	mode := flag.String("mode", "push", "data path: push (RDMA WRITE from source), pull (sink fetches with RDMA READ), or hybrid (switch per session on source CPU load)")
	doTrace := flag.Bool("trace", false, "dump the protocol event trace when the transfer ends")
	traceOut := flag.String("trace-out", "", "write the protocol event trace to FILE as JSONL")
	doStats := flag.Bool("stats", false, "print a telemetry summary when the transfer ends")
	statsEvery := flag.Duration("stats-every", 0, "also print the telemetry summary at this interval (implies -stats)")
	httpAddr := flag.String("http", "", "serve live telemetry over HTTP on this address (GET /metrics for Prometheus, /debug/telemetry for JSON)")
	spanSample := flag.Int("span-sample", 16, "record the lifecycle span of 1 in N blocks (0 = off, 1 = every block)")
	spanOut := flag.String("span-out", "", "write completed block lifecycle spans to FILE as JSONL")
	flag.Parse()
	if flag.NArg() == 0 && *zero == "" {
		fmt.Fprintln(os.Stderr, "usage: rftp [flags] file...")
		fmt.Fprintln(os.Stderr, "       rftp [flags] -zero 1G")
		flag.PrintDefaults()
		os.Exit(2)
	}
	blockSize, err := parseSize(*blockStr)
	if err != nil {
		log.Fatalf("rftp: %v", err)
	}

	dev, err := netfabric.Dial(*server)
	if err != nil {
		log.Fatalf("rftp: dial: %v", err)
	}
	defer dev.Close()
	loop := chanfabric.NewLoop("rftp")
	defer loop.Stop()
	shards := *reactors
	if shards < 1 {
		shards = 1
	}
	if shards > *channels {
		shards = *channels
	}
	loops := []verbs.Loop{loop}
	for i := 1; i < shards; i++ {
		sl := chanfabric.NewLoop(fmt.Sprintf("rftp-shard%d", i))
		defer sl.Stop()
		loops = append(loops, sl)
	}

	// -sessions N multiplexes N tenant streams over this connection;
	// size the control receive ring for the SESSION_RESP / credit-grant
	// bursts they generate.
	ep, err := core.NewServiceEndpoint(dev, loops, *channels, *depth, *sessions)
	if err != nil {
		log.Fatalf("rftp: endpoint: %v", err)
	}
	var cache *verbs.MRCache
	if *mrCache > 0 {
		cache = verbs.NewMRCache(dev, *mrCache)
		ep.MRCache = cache
	}
	if err := ep.Bind(dev.BindQP); err != nil {
		log.Fatalf("rftp: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.Channels = *channels
	cfg.IODepth = *depth
	cfg.LoadDepth = *loadDepth
	cfg.NotifyViaImm = *imm
	cfg.TransferMode, err = core.ParseTransferMode(*mode)
	if err != nil {
		log.Fatalf("rftp: %v", err)
	}
	if cfg.TransferMode == core.ModeHybrid {
		cfg.LoadProbe = loadAvgProbe()
	}
	source, err := core.NewSource(ep, cfg)
	if err != nil {
		log.Fatalf("rftp: source: %v", err)
	}
	source.OnError = func(err error) { log.Printf("rftp: connection error: %v", err) }

	// The storage engine: a shared pool of reader workers sized to the
	// load depth, so file reads overlap each other and the network.
	workers := *loadDepth
	if workers <= 0 || workers > *depth {
		workers = *depth
	}
	eng := storage.NewEngine(workers)
	defer eng.Close()

	// Telemetry: source protocol metrics plus fabric WR/byte counters,
	// attached before negotiation so nothing is missed.
	var reg *telemetry.Registry
	if *doStats || *statsEvery > 0 || *httpAddr != "" || *spanOut != "" {
		reg = telemetry.NewRegistry("rftp")
		dev.Telemetry = telemetry.NewFabricMetrics(reg.Child("fabric"))
		source.AttachTelemetry(reg)
		source.AttachSpans(reg, *spanSample)
		eng.SetMetrics(core.NewIOMetrics(reg.Child("storage")))
		if cache != nil {
			telemetry.AttachMRCache(reg.Child("mrcache"), cache)
		}
	}
	if *httpAddr != "" {
		go func() {
			log.Printf("rftp: telemetry on http://%s/", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, telemetry.Handler(reg)); err != nil {
				log.Printf("rftp: telemetry http: %v", err)
			}
		}()
	}
	var ring *trace.Ring
	if *doTrace || *traceOut != "" {
		capacity := 4096
		if *traceOut != "" {
			capacity = 1 << 16 // exported traces want the full history
		}
		ring = trace.NewRing(capacity, nil)
		source.Trace = ring
	}
	defer func() {
		if *spanOut != "" {
			if err := writeSpanFile(*spanOut, loop, source); err != nil {
				log.Printf("rftp: span-out: %v", err)
			}
		}
		if ring != nil && *traceOut != "" {
			if err := writeTraceFile(*traceOut, ring); err != nil {
				log.Printf("rftp: trace-out: %v", err)
			}
		}
		if ring != nil && *doTrace {
			fmt.Fprintln(os.Stderr, "--- protocol trace ---")
			ring.Render(os.Stderr)
		}
		if reg != nil {
			fmt.Fprintln(os.Stderr, "--- telemetry ---")
			reg.Snapshot().WriteText(os.Stderr)
			if m := dev.Telemetry; m != nil && m.TxBatches() > 0 {
				log.Printf("rftp: control plane: %d ctrl msgs (%d B); %d vectored writes carried %d frames (%.1f frames/write)",
					m.CtrlMsgs(), m.CtrlBytes(), m.TxBatches(), m.TxFrames(),
					float64(m.TxFrames())/float64(m.TxBatches()))
			}
		}
	}()
	if reg != nil && *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				fmt.Fprintln(os.Stderr, "--- telemetry ---")
				reg.Snapshot().WriteText(os.Stderr)
			}
		}()
	}

	type result struct {
		name string
		r    core.TransferResult
		dur  time.Duration
	}
	nSess := *sessions
	if nSess < 1 {
		nSess = 1
	}
	bufDepth := flag.NArg()
	if nSess > bufDepth {
		bufDepth = nSess
	}
	// Buffered to the transfer count: onDone callbacks run on the
	// protocol loop and must never block on this channel.
	results := make(chan result, bufDepth)
	ready := make(chan error, 1)
	loop.Post(0, func() {
		source.Start(func(err error) { ready <- err })
	})
	if err := <-ready; err != nil {
		log.Fatalf("rftp: negotiation: %v", err)
	}
	log.Printf("rftp: negotiated block=%s channels=%d depth=%d load-depth=%d reactors=%d", *blockStr, *channels, *depth, workers, shards)

	if *zero != "" {
		// The paper's memory-to-memory test: /dev/zero at the source,
		// /dev/null at the sink (run rftpd with -devnull).
		n, err := parseSize(*zero)
		if err != nil {
			log.Fatalf("rftp: %v", err)
		}
		start := time.Now()
		// -sessions splits the payload into N tenant streams sharing the
		// connection's data channels; the sink's per-tenant scheduler
		// partitions the credit window between them.
		per := int64(n) / int64(nSess)
		for i := 0; i < nSess; i++ {
			sz := per
			if i == nSess-1 {
				sz = int64(n) - per*int64(nSess-1)
			}
			// The synthetic reader is serial, so the engine runs its
			// loads one at a time — but off the protocol loop.
			src := storage.NewAsyncSource(core.ReaderSource{R: io.LimitReader(zeroReader{}, sz)}, eng)
			loop.Post(0, func() {
				source.Transfer(src, sz,
					func(r core.TransferResult) {
						results <- result{name: "<zeros>", r: r, dur: time.Since(start)}
					})
			})
		}
		var aggBytes, aggBlocks int64
		var last time.Duration
		for i := 0; i < nSess; i++ {
			res := <-results
			if res.r.Err != nil {
				log.Fatalf("rftp: session %d: %v", res.r.Session, res.r.Err)
			}
			aggBytes += res.r.Bytes
			aggBlocks += res.r.Blocks
			if res.dur > last {
				last = res.dur
			}
			if nSess > 1 {
				gbps := float64(res.r.Bytes) * 8 / res.dur.Seconds() / 1e9
				log.Printf("rftp: session %d: %d bytes in %v (%.2f Gbps)",
					res.r.Session, res.r.Bytes, res.dur.Round(time.Millisecond), gbps)
			}
		}
		gbps := float64(aggBytes) * 8 / last.Seconds() / 1e9
		log.Printf("rftp: mem-to-mem %d bytes over %d session(s) in %v (%.2f Gbps, %d blocks)",
			aggBytes, nSess, last.Round(time.Millisecond), gbps, aggBlocks)
		loop.Post(0, source.Close)
		return
	}

	for _, name := range flag.Args() {
		name := name
		f, err := os.Open(name)
		if err != nil {
			log.Fatalf("rftp: %v", err)
		}
		st, err := f.Stat()
		if err != nil {
			log.Fatalf("rftp: %v", err)
		}
		start := time.Now()
		// Offset-addressed reads through the engine: the protocol keeps
		// -load-depth reads in flight against the file.
		src := storage.NewFileSource(f, st.Size(), eng)
		loop.Post(0, func() {
			source.Transfer(src, st.Size(), func(r core.TransferResult) {
				f.Close()
				results <- result{name: name, r: r, dur: time.Since(start)}
			})
		})
	}
	failed := false
	for range flag.Args() {
		res := <-results
		if res.r.Err != nil {
			log.Printf("rftp: %s: %v", res.name, res.r.Err)
			failed = true
			continue
		}
		gbps := float64(res.r.Bytes) * 8 / res.dur.Seconds() / 1e9
		log.Printf("rftp: %s: %d bytes in %v (%.2f Gbps, %d blocks, session %d)",
			res.name, res.r.Bytes, res.dur.Round(time.Millisecond), gbps, res.r.Blocks, res.r.Session)
	}
	loop.Post(0, source.Close)
	if failed {
		os.Exit(1)
	}
}

// writeSpanFile exports completed block lifecycle spans as JSONL. The
// span ring is owned by the protocol loop, so the dump runs there.
func writeSpanFile(path string, loop *chanfabric.Loop, source *core.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	loop.Post(0, func() {
		if rec := source.Spans(); rec != nil {
			errc <- rec.WriteJSONL(f)
			return
		}
		errc <- nil
	})
	if err := <-errc; err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile exports the ring's retained events as JSONL.
func writeTraceFile(path string, ring *trace.Ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, ring.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// zeroReader yields an endless stream of zero bytes (/dev/zero).
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// parseSize parses 64K / 1M / 4M / plain-byte sizes.
func parseSize(s string) (int, error) {
	mult := 1
	up := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(up, "G"):
		mult, up = 1<<30, strings.TrimSuffix(up, "G")
	case strings.HasSuffix(up, "M"):
		mult, up = 1<<20, strings.TrimSuffix(up, "M")
	case strings.HasSuffix(up, "K"):
		mult, up = 1<<10, strings.TrimSuffix(up, "K")
	}
	n, err := strconv.Atoi(up)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// loadAvgProbe returns the hybrid controller's CPU-load signal for a
// real host: the 1-minute load average normalized by core count,
// sampled at most once per second so the control plane never touches
// the filesystem on a per-block basis. Hosts without /proc/loadavg
// (or with it unreadable) probe as idle, which degrades hybrid to
// push — the safe default.
func loadAvgProbe() func() float64 {
	cores := float64(runtime.NumCPU())
	var mu sync.Mutex
	var last float64
	var lastAt time.Time
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		if now := time.Now(); now.Sub(lastAt) >= time.Second {
			lastAt = now
			if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
				if fields := strings.Fields(string(raw)); len(fields) > 0 {
					if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
						last = v / cores
					}
				}
			}
		}
		return last
	}
}
