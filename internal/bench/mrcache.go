package bench

import (
	"fmt"

	"rftp/internal/core"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/sim"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

// MRCacheReport summarizes pin-down cache behavior over a repeated-
// connection run (both endpoints combined).
type MRCacheReport struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// HitRate is hits/(hits+misses) across both caches.
	HitRate float64
	// Idle is the number of registrations parked in the caches at the
	// end of the run.
	Idle int
}

// RunRFTPRepeated drives conns sequential RFTP connections over one
// fabric, with each side's block pools drawing registrations from a
// shared pin-down MR cache: the first connection registers fresh
// regions (misses), every later one reuses them (hits). This is the
// registration-cost scenario the pin-down cache exists for — short
// repeated sessions where per-connection registration would otherwise
// dominate setup. With opt.Telemetry set, the caches are mirrored into
// the registry as src_mrcache / dst_mrcache counter groups.
func RunRFTPRepeated(tb Testbed, opt RFTPOptions, conns int) ([]RunResult, MRCacheReport, error) {
	if conns < 1 {
		conns = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	sched := sim.New(opt.Seed)
	p, err := newSimPair(simfabric.New(sched), nil, tb, "", opt)
	if err != nil {
		return nil, MRCacheReport{}, err
	}
	// Generous bound: each teardown parks one full pool per side.
	p.srcCache = verbs.NewMRCache(p.srcDev, p.cfg.IODepth+p.cfg.SinkBlocks)
	p.dstCache = verbs.NewMRCache(p.dstDev, p.cfg.IODepth+p.cfg.SinkBlocks)
	if opt.Telemetry != nil {
		telemetry.AttachMRCache(opt.Telemetry.Child("src_mrcache"), p.srcCache)
		telemetry.AttachMRCache(opt.Telemetry.Child("dst_mrcache"), p.dstCache)
	}

	var results []RunResult
	for c := 0; c < conns; c++ {
		source, sink, err := p.connect()
		if err != nil {
			return nil, MRCacheReport{}, err
		}
		var srcRes core.TransferResult
		srcDone, sinkDone := false, false
		sink.OnSessionDone = func(core.SessionInfo, core.TransferResult) { sinkDone = true }
		var negoErr error
		source.Start(func(err error) {
			if err != nil {
				negoErr = err
				return
			}
			source.Transfer(p.memSource(opt.TotalBytes), opt.TotalBytes, func(r core.TransferResult) {
				srcRes = r
				srcDone = true
			})
		})
		sched.RunAll()
		if negoErr != nil {
			return nil, MRCacheReport{}, negoErr
		}
		if !srcDone || !sinkDone {
			return nil, MRCacheReport{}, fmt.Errorf("bench: repeated RFTP conn %d did not complete (src=%v sink=%v)", c, srcDone, sinkDone)
		}
		if srcRes.Err != nil {
			return nil, MRCacheReport{}, srcRes.Err
		}
		st := source.Stats()
		results = append(results, RunResult{
			Tool:          "RFTP",
			BandwidthGbps: st.BandwidthGbps(),
			Bytes:         st.Bytes,
			Elapsed:       st.Elapsed(),
		})
		// Teardown releases both pools' registrations into the caches,
		// priming the next connection's hits.
		source.Close()
		sink.Close()
		sched.RunAll()
	}

	sh, sm, se := p.srcCache.Stats()
	dh, dm, de := p.dstCache.Stats()
	rep := MRCacheReport{
		Hits: sh + dh, Misses: sm + dm, Evictions: se + de,
		Idle: p.srcCache.Idle() + p.dstCache.Idle(),
	}
	if rep.Hits+rep.Misses > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Hits+rep.Misses)
	}
	return results, rep, nil
}
