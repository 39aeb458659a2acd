package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// FormatBlockSize renders a byte count the way the paper labels its
// x-axes (64K, 4M, ...).
func FormatBlockSize(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// WriteTable renders rows as an aligned text table.
func WriteTable(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\ttestbed\ttool\tblock\tstreams\tdepth\tGbps\tclientCPU%\tserverCPU%\tstalls\tretrans\trnr\tallocs/op\tcopied/op\tloadlat(µs)\tstorelat(µs)\tctrl-msgs/op\tgrant-batch\tsessions\tgoodput_agg\tjain_index\tmem/sess\ttop-stall\tnote")
	for _, r := range rows {
		streams := ""
		if r.Streams > 0 {
			streams = fmt.Sprintf("%d", r.Streams)
		}
		depth := ""
		if r.Depth > 0 {
			depth = fmt.Sprintf("%d", r.Depth)
		}
		allocs, copied := "", ""
		if r.AllocsPerOp > 0 || r.CopiedPerOp > 0 {
			allocs = fmt.Sprintf("%.0f", r.AllocsPerOp)
			copied = fmt.Sprintf("%.0f", r.CopiedPerOp)
		}
		loadlat, storelat := "", ""
		if r.LoadLatUs > 0 {
			loadlat = fmt.Sprintf("%.0f", r.LoadLatUs)
		}
		if r.StoreLatUs > 0 {
			storelat = fmt.Sprintf("%.0f", r.StoreLatUs)
		}
		ctrlOp, grantBatch := "", ""
		if r.CtrlPerOp > 0 {
			ctrlOp = fmt.Sprintf("%.2f", r.CtrlPerOp)
		}
		if r.GrantBatch > 0 {
			grantBatch = fmt.Sprintf("%.1f", r.GrantBatch)
		}
		sessions, goodputAgg, jain, memSess := "", "", "", ""
		if r.Sessions > 0 {
			sessions = fmt.Sprintf("%d", r.Sessions)
			goodputAgg = fmt.Sprintf("%.2f", r.GoodputAgg)
			if r.Sessions > 1 {
				jain = fmt.Sprintf("%.3f", r.JainIndex)
				memSess = fmt.Sprintf("%.1fKiB", r.MemPerSess/1024)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f\t%.0f\t%.0f\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Figure, r.Testbed, r.Tool, FormatBlockSize(r.BlockSize),
			streams, depth, r.Gbps, r.ClientCPU, r.ServerCPU,
			r.Stalls, r.Retrans, r.RNR, allocs, copied, loadlat, storelat, ctrlOp, grantBatch,
			sessions, goodputAgg, jain, memSess, r.TopStall, r.Note)
	}
	return tw.Flush()
}

// WriteCSV renders rows as CSV.
func WriteCSV(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintln(w, "figure,testbed,tool,block_bytes,streams,depth,gbps,client_cpu_pct,server_cpu_pct,stalls,retrans,rnr,allocs_per_op,copied_bytes_per_op,load_lat_us,store_lat_us,ctrl_msgs_per_op,grant_batch_mean,sessions,goodput_agg,jain_index,mem_per_session,top_stall,note"); err != nil {
		return err
	}
	for _, r := range rows {
		note := strings.ReplaceAll(r.Note, ",", ";")
		topStall := strings.ReplaceAll(r.TopStall, ",", ";")
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%.3f,%.1f,%.1f,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.3f,%.2f,%d,%.3f,%.4f,%.0f,%s,%s\n",
			r.Figure, r.Testbed, r.Tool, r.BlockSize, r.Streams, r.Depth,
			r.Gbps, r.ClientCPU, r.ServerCPU, r.Stalls, r.Retrans, r.RNR,
			r.AllocsPerOp, r.CopiedPerOp, r.LoadLatUs, r.StoreLatUs,
			r.CtrlPerOp, r.GrantBatch, r.Sessions, r.GoodputAgg, r.JainIndex, r.MemPerSess,
			topStall, note); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders rows as a JSON array, one Row object per element,
// for machine-readable CI artifacts.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// WriteTable1 renders the Table I testbed description.
func WriteTable1(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tIB LAN\tRoCE LAN\tRoCE WAN")
	tbs := Testbeds()
	row := func(label string, f func(Testbed) string) {
		fmt.Fprintf(tw, "%s", label)
		for _, tb := range tbs {
			fmt.Fprintf(tw, "\t%s", f(tb))
		}
		fmt.Fprintln(tw)
	}
	row("CPU", func(t Testbed) string { return t.CPU })
	row("Cores", func(t Testbed) string { return fmt.Sprintf("%d", t.CoresTotal) })
	row("Mem (GB)", func(t Testbed) string { return fmt.Sprintf("%d", t.MemGB) })
	row("NIC (Gbps)", func(t Testbed) string { return fmt.Sprintf("%d", t.NICGbps) })
	row("OS", func(t Testbed) string { return t.OS })
	row("Kernel", func(t Testbed) string { return t.Kernel })
	row("OFED", func(t Testbed) string { return t.OFED })
	row("TCP CC", func(t Testbed) string { return t.TCPCC })
	row("MTU", func(t Testbed) string { return fmt.Sprintf("%d", t.MTU) })
	row("RTT", func(t Testbed) string { return t.RTT.String() })
	return tw.Flush()
}
