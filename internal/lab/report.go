package lab

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatTable1 renders experiment rows side by side the way the paper's
// Table 1 presents them.
func FormatTable1(rows ...Table1Row) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprint(w, "Metric")
	for _, r := range rows {
		fmt.Fprintf(w, "\t%s", r.Label)
	}
	fmt.Fprintln(w)
	line := func(name string, val func(Table1Row) string) {
		fmt.Fprint(w, name)
		for _, r := range rows {
			fmt.Fprintf(w, "\t%s", val(r))
		}
		fmt.Fprintln(w)
	}
	line("Start period (s)", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.StartPeriodS) })
	line("Transfer volume (MB)", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.TransferVolumeMB) })
	line("Total data transfer (GB)", func(r Table1Row) string { return fmt.Sprintf("%.2f", r.TotalDataGB) })
	line("Min flow runtime (s)", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.MinRuntimeS) })
	line("Mean flow runtime (s)", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.MeanRuntimeS) })
	line("Max flow runtime (s)", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.MaxRuntimeS) })
	line("Median overhead (s)", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.MedianOverheadS) })
	line("Median overhead (%)", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.MedianOverheadPct) })
	line("Total flow runs", func(r Table1Row) string { return fmt.Sprintf("%d", r.TotalRuns) })
	w.Flush()
	return sb.String()
}

// FormatStages renders the per-step decomposition of one experiment the
// way the paper's Fig 4 itemizes it.
func FormatStages(label string, stages []StageRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Itemized runtime statistics — %s flow (seconds)\n", label)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Step\tactive min\tactive median\tactive max\toverhead median\tmean polls")
	for _, s := range stages {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			s.Name, s.ActiveMinS, s.ActiveMedS, s.ActiveMaxS, s.OverheadMedS, s.MeanPolls)
	}
	w.Flush()
	return sb.String()
}

// PaperTable1Hyperspectral and PaperTable1Spatiotemporal are the published
// values (Table 1 of the paper), kept here so EXPERIMENTS.md comparisons
// and shape tests have a single source of truth.
var (
	PaperTable1Hyperspectral = Table1Row{
		Label: "hyperspectral (paper)", StartPeriodS: 30, TransferVolumeMB: 91,
		TotalDataGB: 6.42, MinRuntimeS: 29, MeanRuntimeS: 47, MaxRuntimeS: 181,
		MedianOverheadS: 19.5, MedianOverheadPct: 49.2, TotalRuns: 72,
	}
	PaperTable1Spatiotemporal = Table1Row{
		Label: "spatiotemporal (paper)", StartPeriodS: 120, TransferVolumeMB: 1200,
		TotalDataGB: 21.72, MinRuntimeS: 195, MeanRuntimeS: 224, MaxRuntimeS: 274,
		MedianOverheadS: 45.2, MedianOverheadPct: 21.1, TotalRuns: 18,
	}
)
