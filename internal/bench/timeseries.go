package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/gridftp"
	"rftp/internal/hostmodel"
	"rftp/internal/metrics"
	"rftp/internal/sim"
	"rftp/internal/tcpmodel"
	"rftp/internal/telemetry"
)

// TimeSeriesResult holds bandwidth-over-time curves for both tools from
// a cold start: the RFTP credit ramp versus TCP slow start.
type TimeSeriesResult struct {
	Testbed  string
	Interval time.Duration
	RFTP     metrics.Series
	GridFTP  metrics.Series
	// Summaries over the steady-state half of the window.
	RFTPSummary    metrics.Summary
	GridFTPSummary metrics.Summary
	// Telemetry snapshots taken when each run's window closed.
	RFTPTelemetry    *telemetry.Snapshot
	GridFTPTelemetry *telemetry.Snapshot
}

// TimeSeries runs both tools from a cold start on the testbed for the
// given window, sampling delivered bytes every interval.
func TimeSeries(tb Testbed, window, interval time.Duration, blockSize, streams int) (*TimeSeriesResult, error) {
	res := &TimeSeriesResult{Testbed: tb.Name, Interval: interval}

	// RFTP: a transfer large enough to outlast the window.
	{
		sched := sim.New(1)
		cfg := core.DefaultConfig()
		cfg.BlockSize = blockSize
		cfg.Channels = streams
		cfg.IODepth = rftpDepthFor(tb, blockSize)
		cfg.SinkBlocks = 2 * cfg.IODepth
		p, err := newSimPair(simfabric.New(sched), nil, tb, "", RFTPOptions{Config: cfg})
		if err != nil {
			return nil, err
		}
		source, sink, err := p.connect()
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry("rftp")
		p.srcDev.Telemetry = telemetry.NewFabricMetrics(reg.Child("src_fabric"))
		p.dstDev.Telemetry = telemetry.NewFabricMetrics(reg.Child("dst_fabric"))
		source.AttachTelemetry(reg.Child("source"))
		sink.AttachTelemetry(reg.Child("sink"))
		// Enough data to outlast the window at line rate.
		total := int64(tb.Link.RateBps/8*window.Seconds()) * 2
		source.Start(func(err error) {
			if err != nil {
				return
			}
			source.Transfer(p.memSource(total), total, func(core.TransferResult) {})
		})
		sampler := metrics.NewRateSampler(interval)
		var sample func()
		sample = func() {
			sampler.Observe(sched.Now(), float64(source.Stats().Bytes)*8/1e9) // gigabits
			if sched.Now() < window {
				sched.After(interval, sample)
			}
		}
		sample()
		sched.Run(window + interval)
		sampler.Flush()
		res.RFTP = sampler.Series()
		res.RFTPTelemetry = reg.Snapshot()
	}

	// GridFTP on the same structural parameters.
	{
		sched := sim.New(1)
		path := tcpmodel.NewPath(sched, tcpmodel.PathConfig{
			RateBps: tb.Link.RateBps, RTT: tb.RTT, SegBytes: tb.TCPSegBytes,
		})
		client := hostmodel.NewHost(sched, "client", tb.CoresTotal, tb.Host)
		server := hostmodel.NewHost(sched, "server", tb.CoresTotal, tb.Host)
		total := int64(tb.Link.RateBps/8*window.Seconds()) * 2
		tr := gridftp.New(sched, path, client, server, gridftp.Config{
			Streams: streams, BlockSize: blockSize, TotalBytes: total, Variant: tb.TCPVariant,
		})
		greg := telemetry.NewRegistry("gridftp")
		tr.AttachTelemetry(greg)
		tr.Start(func(gridftp.Stats) {})
		sampler := metrics.NewRateSampler(interval)
		var sample func()
		sample = func() {
			sampler.Observe(sched.Now(), float64(tr.DeliveredBytes())*8/1e9)
			if sched.Now() < window {
				sched.After(interval, sample)
			}
		}
		sample()
		sched.Run(window + interval)
		sampler.Flush()
		res.GridFTP = sampler.Series()
		res.GridFTPTelemetry = greg.Snapshot()
	}

	res.RFTPSummary = steadySummary(res.RFTP)
	res.GridFTPSummary = steadySummary(res.GridFTP)
	return res, nil
}

// steadySummary summarizes the second half of a series (post-ramp).
func steadySummary(s metrics.Series) metrics.Summary {
	vals := s.Values()
	return metrics.Summarize(vals[len(vals)/2:])
}

// Render writes both curves side by side.
func (r *TimeSeriesResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "t\tRFTP Gbps\tGridFTP Gbps\n")
	n := len(r.RFTP.Points)
	if len(r.GridFTP.Points) > n {
		n = len(r.GridFTP.Points)
	}
	get := func(s metrics.Series, i int) string {
		if i >= len(s.Points) {
			return ""
		}
		return fmt.Sprintf("%.2f", s.Points[i].V)
	}
	for i := 0; i < n; i++ {
		var ts time.Duration
		if i < len(r.RFTP.Points) {
			ts = r.RFTP.Points[i].T
		} else {
			ts = r.GridFTP.Points[i].T
		}
		fmt.Fprintf(tw, "%v\t%s\t%s\n", ts.Round(time.Millisecond), get(r.RFTP, i), get(r.GridFTP, i))
	}
	fmt.Fprintf(tw, "steady mean\t%.2f\t%.2f\n", r.RFTPSummary.Mean, r.GridFTPSummary.Mean)
	fmt.Fprintf(tw, "steady CoV\t%.3f\t%.3f\n", r.RFTPSummary.CoefficientOfVar, r.GridFTPSummary.CoefficientOfVar)
	if err := tw.Flush(); err != nil {
		return err
	}
	return r.renderTelemetry(w)
}

// renderTelemetry summarizes each tool's instrumentation over the
// window: the flow-control story (credit stalls and latency vs cwnd and
// retransmits) behind the bandwidth curves above.
func (r *TimeSeriesResult) renderTelemetry(w io.Writer) error {
	if r.RFTPTelemetry == nil && r.GridFTPTelemetry == nil {
		return nil
	}
	fmt.Fprintln(w, "\n-- telemetry --")
	if src := r.RFTPTelemetry.Find("source"); src != nil {
		sink := r.RFTPTelemetry.Find("sink")
		rnr := r.RFTPTelemetry.Find("src_fabric").Counter("rnr_events") +
			r.RFTPTelemetry.Find("dst_fabric").Counter("rnr_events")
		credLat := sink.Histogram("credit_latency")
		postLat := src.Histogram("post_latency")
		fmt.Fprintf(w, "RFTP:    blocks=%d credit_stalls=%d rnr=%d credit_latency p50=%v p95=%v post_latency p50=%v p95=%v\n",
			src.Counter("blocks_posted"), src.Counter("credit_stalls"), rnr,
			time.Duration(credLat.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(credLat.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(postLat.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(postLat.Quantile(0.95)).Round(time.Microsecond))
	}
	if g := r.GridFTPTelemetry; g != nil {
		var retrans, timeouts int64
		var cwnd telemetry.HistogramSnapshot
		for _, child := range g.Children {
			if !strings.HasPrefix(child.Name, "stream") {
				continue
			}
			retrans += child.Counter("retransmits")
			timeouts += child.Counter("timeouts")
			if merged, err := cwnd.Merge(child.Histogram("cwnd_segments")); err == nil {
				cwnd = merged
			}
		}
		fmt.Fprintf(w, "GridFTP: retrans=%d timeouts=%d path_drops=%d cwnd_segs p50=%.0f p95=%.0f server_backlog p95=%v\n",
			retrans, timeouts, g.Find("path").Counter("drops"),
			float64(cwnd.Quantile(0.5)), float64(cwnd.Quantile(0.95)),
			time.Duration(g.Histogram("server_backlog").Quantile(0.95)).Round(time.Microsecond))
	}
	return nil
}
