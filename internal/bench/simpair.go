package bench

import (
	"fmt"

	"rftp/internal/core"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/verbs"
)

// simPair is a modeled source host and sink host joined by the testbed's
// link — the rig every simulated RFTP run stands on. newSimPair builds
// the machines; connect builds one RFTP connection across them.
type simPair struct {
	tb  Testbed
	fab *simfabric.Fabric
	// cfg is the run's normalized protocol configuration.
	cfg      core.Config
	sessions int // control-ring sizing for the endpoints

	srcHost, dstHost *hostmodel.Host
	srcDev, dstDev   *simfabric.Device
	// srcLoops[0] / dstLoops[0] carry the control plane; the rest are
	// reactor shards.
	srcLoops, dstLoops []verbs.Loop
	loader, storer     *hostmodel.Thread
	// loaders / storers are set only when the run spreads memory-model
	// I/O over several threads; they then include loader / storer.
	loaders, storers []*hostmodel.Thread
	// srcCache / dstCache, when set, supply the pools of every
	// connection made afterwards from a pin-down MR cache.
	srcCache, dstCache *verbs.MRCache
}

// newSimPair models two hosts of the testbed on fab, linked directly or,
// when bb is non-nil, through the shared backbone; tag tells the pairs
// of a multi-pair run apart. Of opt it reads Config (normalized here,
// with modeled payload), Reactors, Loaders, Storers and Sessions.
func newSimPair(fab *simfabric.Fabric, bb *simfabric.Backbone, tb Testbed, tag string, opt RFTPOptions) (*simPair, error) {
	cfg := opt.Config
	cfg.ModelPayload = true
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	// Both control rings are sized for the tenant count: the sink's
	// absorbs the admission storm, the source's the SESSION_RESP /
	// grant bursts coming back.
	p := &simPair{tb: tb, fab: fab, cfg: cfg, sessions: max(opt.Sessions, cfg.MaxSessions+cfg.SessionQueue)}
	sched := fab.Scheduler()
	p.srcHost = hostmodel.NewHost(sched, "src"+tag, tb.CoresTotal, tb.Host)
	p.dstHost = hostmodel.NewHost(sched, "dst"+tag, tb.CoresTotal, tb.Host)
	p.srcDev = fab.NewDevice("hca-src"+tag, p.srcHost, tb.NIC)
	p.dstDev = fab.NewDevice("hca-dst"+tag, p.dstHost, tb.NIC)
	if bb != nil {
		fab.ConnectVia(p.srcDev, p.dstDev, tb.Link, bb)
	} else {
		fab.Connect(p.srcDev, p.dstDev, tb.Link)
	}

	p.srcLoops = []verbs.Loop{p.srcHost.NewThread("rftp-src")}
	p.dstLoops = []verbs.Loop{p.dstHost.NewThread("rftp-sink")}
	for i := 1; i < min(opt.Reactors, cfg.Channels); i++ {
		p.srcLoops = append(p.srcLoops, p.srcHost.NewThread(fmt.Sprintf("rftp-src-shard%d", i)))
		p.dstLoops = append(p.dstLoops, p.dstHost.NewThread(fmt.Sprintf("rftp-sink-shard%d", i)))
	}
	p.loader = p.srcHost.NewThread("loader")
	p.storer = p.dstHost.NewThread("storer")
	p.loaders = spread(p.loader, opt.Loaders)
	p.storers = spread(p.storer, opt.Storers)
	return p, nil
}

// spread returns first plus n-1 more threads on its host, or nil when
// the one dedicated thread is all the run asks for.
func spread(first *hostmodel.Thread, n int) []*hostmodel.Thread {
	if n <= 1 {
		return nil
	}
	threads := []*hostmodel.Thread{first}
	for i := 1; i < n; i++ {
		threads = append(threads, first.Host().NewThread(fmt.Sprintf("%s%d", first.Label(), i)))
	}
	return threads
}

// connect builds one RFTP connection across the pair: an endpoint per
// side, their queue pairs wired, a sink storing into the modeled memory
// sink (callers with another destination replace NewWriter before the
// scheduler runs), and a source.
func (p *simPair) connect() (*core.Source, *core.Sink, error) {
	srcEP, err := core.NewServiceEndpoint(p.srcDev, p.srcLoops, p.cfg.Channels, p.cfg.IODepth, p.sessions)
	if err != nil {
		return nil, nil, err
	}
	dstEP, err := core.NewServiceEndpoint(p.dstDev, p.dstLoops, p.cfg.Channels, p.cfg.IODepth, p.sessions)
	if err != nil {
		return nil, nil, err
	}
	srcEP.MRCache, dstEP.MRCache = p.srcCache, p.dstCache
	if err := srcEP.ConnectTo(dstEP, p.fab.ConnectQPs); err != nil {
		return nil, nil, err
	}
	sink, err := core.NewSink(dstEP, p.cfg)
	if err != nil {
		return nil, nil, err
	}
	sink.NewWriter = func(core.SessionInfo) core.BlockSink {
		return &hostmodel.ModelSink{Storer: p.storer, Storers: p.storers, NsPerByte: p.tb.Host.MemStoreNsPerByte}
	}
	source, err := core.NewSource(srcEP, p.cfg)
	if err != nil {
		return nil, nil, err
	}
	return source, sink, nil
}

// memSource models reading total bytes from memory on the source host.
func (p *simPair) memSource(total int64) *hostmodel.ModelSource {
	return &hostmodel.ModelSource{Total: total, Loader: p.loader, Loaders: p.loaders, NsPerByte: p.tb.Host.MemLoadNsPerByte}
}
