// Command rftpd is the RFTP server (data sink): it accepts connections
// on the TCP-backed verbs fabric and stores each received session as a
// file.
//
// Usage:
//
//	rftpd -listen :2811 -dir ./received -channels 2
//
// The channel count must match the client's -channels flag (both sides
// pre-create their data queue pairs; the protocol's channel negotiation
// then confirms the counts agree).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/netfabric"
	"rftp/internal/storage"
	"rftp/internal/telemetry"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/watch"
)

// parseWeights turns "-tenant-weight 2,1" into the scheduler's weight
// vector; sessions map onto it round-robin by id.
func parseWeights(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	weights := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		if w < 1 {
			return nil, fmt.Errorf("weight %d out of range (must be >= 1)", w)
		}
		weights = append(weights, w)
	}
	return weights, nil
}

// serveOpts carries the observability configuration into each
// connection handler.
type serveOpts struct {
	dir         string
	channels    int
	depth       int
	storeDepth  int
	mrCache     int
	maxSessions int
	sessQueue   int
	weights     []int
	mode        core.TransferMode
	devnull     bool
	stats       bool
	trace       bool
	traceOut    string
	spanSample  int
	root        *telemetry.Registry // nil when telemetry is off

	mu sync.Mutex // serializes trace-out appends across connections
}

func main() {
	listen := flag.String("listen", ":2811", "address to listen on")
	dir := flag.String("dir", ".", "directory to store received sessions in")
	channels := flag.Int("channels", 2, "number of data channel queue pairs")
	depth := flag.Int("depth", 16, "I/O depth (sink block pool = 2x)")
	storeDepth := flag.Int("store-depth", 0, "file writes kept in flight against storage (0 = -depth)")
	mrCache := flag.Int("mr-cache", 0, "per-connection pin-down cache capacity in memory regions: the sink pool draws registrations from the cache and releases them on close (0 = register directly)")
	maxSessions := flag.Int("max-sessions", 0, "concurrently active sessions admitted per connection (0 = unbounded)")
	mode := flag.String("mode", "hybrid", "data paths served: push (refuse pull sessions), pull, or hybrid (accept either and follow the source's mode switches)")
	sessQueue := flag.Int("session-queue", 0, "session requests queued for a slot when -max-sessions is reached; beyond this they are rejected busy")
	tenantWeight := flag.String("tenant-weight", "", "comma-separated DRR weights assigned to sessions round-robin by id (e.g. 2,1; empty = equal shares)")
	once := flag.Bool("once", false, "serve a single connection, then exit")
	devnull := flag.Bool("devnull", false, "discard received data instead of writing files (memory-to-memory benchmark)")
	doStats := flag.Bool("stats", false, "print a telemetry summary when each connection ends")
	doTrace := flag.Bool("trace", false, "dump the protocol event trace when each connection ends")
	traceOut := flag.String("trace-out", "", "append each connection's protocol event trace to FILE as JSONL")
	httpAddr := flag.String("http", "", "serve live telemetry over HTTP on this address (GET /metrics for Prometheus, /debug/telemetry for JSON)")
	doPprof := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ on the -http address")
	doWatch := flag.Bool("watch", false, "redraw a live transfer view (goodput, credits, stalls) on stderr every second")
	spanSample := flag.Int("span-sample", 16, "record the lifecycle span of 1 in N blocks (0 = off, 1 = every block)")
	flag.Parse()

	if *doPprof && *httpAddr == "" {
		log.Fatalf("rftpd: -pprof requires -http to provide the listen address")
	}
	weights, err := parseWeights(*tenantWeight)
	if err != nil {
		log.Fatalf("rftpd: -tenant-weight: %v", err)
	}
	xferMode, err := core.ParseTransferMode(*mode)
	if err != nil {
		log.Fatalf("rftpd: %v", err)
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("rftpd: %v", err)
	}
	ln, err := netfabric.Listen(*listen)
	if err != nil {
		log.Fatalf("rftpd: %v", err)
	}
	log.Printf("rftpd: listening on %s (channels=%d)", ln.Addr(), *channels)

	opts := &serveOpts{
		dir:         *dir,
		channels:    *channels,
		depth:       *depth,
		storeDepth:  *storeDepth,
		mrCache:     *mrCache,
		maxSessions: *maxSessions,
		sessQueue:   *sessQueue,
		weights:     weights,
		mode:        xferMode,
		devnull:     *devnull,
		stats:       *doStats,
		trace:       *doTrace,
		traceOut:    *traceOut,
		spanSample:  *spanSample,
	}
	if *doStats || *httpAddr != "" || *doWatch {
		opts.root = telemetry.NewRegistry("rftpd")
	}
	if *doWatch {
		r := watch.New()
		r.ANSI = true
		go r.Run(os.Stderr, func() (*telemetry.Snapshot, error) {
			return opts.root.Snapshot(), nil
		}, time.Second, nil)
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(opts.root))
		if *doPprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			log.Printf("rftpd: telemetry on http://%s/", *httpAddr)
			if *doPprof {
				log.Printf("rftpd: profiling on http://%s/debug/pprof/", *httpAddr)
			}
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Printf("rftpd: telemetry http: %v", err)
			}
		}()
	}

	for conn := 1; ; conn++ {
		dev, err := ln.Accept()
		if err != nil {
			log.Fatalf("rftpd: accept: %v", err)
		}
		served := make(chan struct{})
		go serve(dev, conn, opts, served)
		if *once {
			<-served
			return
		}
	}
}

func serve(dev *netfabric.Device, conn int, opts *serveOpts, served chan<- struct{}) {
	defer close(served)
	defer dev.Close()
	dir, channels, depth, devnull := opts.dir, opts.channels, opts.depth, opts.devnull
	loop := verbs.NewWallLoop("rftpd")
	defer loop.Stop()

	// Size the control receive ring from the admission cap: a service
	// endpoint admitting -max-sessions tenants (plus the queued ones)
	// takes their SESSION_REQ / MR_INFO_REQUEST bursts on one ring.
	ep, err := core.NewServiceEndpoint(dev, []verbs.Loop{loop}, channels, depth, opts.maxSessions+opts.sessQueue)
	if err != nil {
		log.Printf("rftpd: endpoint: %v", err)
		return
	}
	var cache *verbs.MRCache
	if opts.mrCache > 0 {
		cache = verbs.NewMRCache(dev, opts.mrCache)
		ep.MRCache = cache
	}
	// Per-connection observability: a child registry under the shared
	// root (also visible over -http). The fabric counters go on the
	// device before Bind starts its I/O goroutines.
	var reg *telemetry.Registry
	if opts.root != nil {
		reg = opts.root.Child(fmt.Sprintf("conn%d", conn))
		dev.Telemetry = telemetry.NewFabricMetrics(reg.Child("fabric"))
	}
	if err := ep.Bind(dev.BindQP); err != nil {
		log.Printf("rftpd: %v", err)
		return
	}
	cfg := core.DefaultConfig()
	cfg.Channels = channels
	cfg.IODepth = depth
	cfg.StoreDepth = opts.storeDepth
	cfg.MaxSessions = opts.maxSessions
	cfg.SessionQueue = opts.sessQueue
	cfg.TenantWeights = opts.weights
	cfg.TransferMode = opts.mode
	sink, err := core.NewSink(ep, cfg)
	if err != nil {
		log.Printf("rftpd: sink: %v", err)
		return
	}

	// The storage engine: a per-connection pool of writer workers sized
	// to the store depth, so positioned file writes overlap each other
	// and the network.
	workers := opts.storeDepth
	if workers <= 0 || workers > depth {
		workers = depth
	}
	eng := storage.NewEngine(workers)
	defer eng.Close()

	// Protocol metrics on the connection's registry, and an optional
	// trace ring.
	if reg != nil {
		sink.AttachTelemetry(reg)
		sink.AttachSpans(reg, opts.spanSample)
		eng.SetMetrics(core.NewIOMetrics(reg.Child("storage")))
		if cache != nil {
			telemetry.AttachMRCache(reg.Child("mrcache"), cache)
		}
	}
	var ring *trace.Ring
	if opts.trace || opts.traceOut != "" {
		ring = trace.NewRing(1<<16, nil)
		sink.Trace = ring
	}
	defer func() {
		if ring != nil && opts.traceOut != "" {
			if err := appendTraceFile(opts, ring); err != nil {
				log.Printf("rftpd: trace-out: %v", err)
			}
		}
		if ring != nil && opts.trace {
			fmt.Fprintf(os.Stderr, "--- protocol trace (conn %d) ---\n", conn)
			ring.Render(os.Stderr)
		}
		if reg != nil && opts.stats {
			fmt.Fprintf(os.Stderr, "--- telemetry (conn %d) ---\n", conn)
			reg.Snapshot().WriteText(os.Stderr)
		}
	}()

	connDone := make(chan struct{})
	dev.SetOnClose(func(error) { close(connDone) })

	files := map[uint32]*os.File{}
	sink.NewWriter = func(info core.SessionInfo) core.BlockSink {
		if devnull {
			log.Printf("rftpd: session %d -> /dev/null (%d bytes expected)", info.ID, info.Total)
			return core.DiscardSink{}
		}
		name := filepath.Join(dir, fmt.Sprintf("session-%d.dat", info.ID))
		f, err := os.Create(name)
		if err != nil {
			log.Printf("rftpd: create %s: %v", name, err)
			return core.DiscardSink{}
		}
		files[info.ID] = f
		log.Printf("rftpd: session %d -> %s (%d bytes expected, block %s)",
			info.ID, name, info.Total, sizeLabel(info.BlockSize))
		// Offset-addressed writes through the engine: arriving blocks
		// are stored immediately, -store-depth at a time.
		return storage.NewFileSink(f, eng)
	}
	sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) {
		if f := files[info.ID]; f != nil {
			if err := f.Sync(); err != nil {
				log.Printf("rftpd: sync session %d: %v", info.ID, err)
			}
			f.Close()
			delete(files, info.ID)
		}
		if r.Err != nil {
			log.Printf("rftpd: session %d failed: %v", info.ID, r.Err)
			return
		}
		log.Printf("rftpd: session %d complete: %d bytes in %d blocks", info.ID, r.Bytes, r.Blocks)
	}
	sink.OnError = func(err error) {
		log.Printf("rftpd: connection error: %v", err)
	}
	<-connDone
	// Close must run before the deferred loop.Stop, which discards
	// queued closures: it ends every live session (OnSessionDone syncs
	// and closes its file) and releases the pool.
	done := make(chan struct{})
	loop.Post(0, func() { sink.Close(); close(done) })
	<-done
	log.Printf("rftpd: peer disconnected")
}

// appendTraceFile appends the ring's retained events to the shared
// trace-out file; JSONL concatenates cleanly across connections.
func appendTraceFile(opts *serveOpts, ring *trace.Ring) error {
	opts.mu.Lock()
	defer opts.mu.Unlock()
	f, err := os.OpenFile(opts.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, ring.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
