package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"text/tabwriter"
)

// report is the file -out writes and -compare reads: every number the
// benchmark printed, with what a reader needs to trust it.
type report struct {
	Schema     string           `json:"schema"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit"`
	Workloads  []workloadReport `json:"workloads"`
}

const reportSchema = "cachier-benchmark/v1"

type workloadReport struct {
	Name        string         `json:"name"`
	Why         string         `json:"why"`
	OpsPerRound int            `json:"ops_per_round"`
	Clients     int            `json:"clients"`
	Rounds      int            `json:"rounds"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	FailedRatio float64        `json:"failed_ratio"`
	EndToEnd    []metricReport `json:"end_to_end,omitempty"`
	PerLayer    []metricReport `json:"per_layer,omitempty"`
}

// metricReport is one metric on one workload. For an end-to-end metric
// Value is the median of Values, one per round; a per-layer metric has the
// one value the traced run measured.
type metricReport struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Exact   bool      `json:"exact,omitempty"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Samples int       `json:"samples"` // per value: ops in a round, or calls timed
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		Schema:     reportSchema,
		Seed:       seed,
		Seconds:    seconds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

// buildCommit is the git revision the binary was built from, when the
// toolchain stamped one.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	commit, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		commit += "-dirty"
	}
	return commit
}

func summarise(spec metricSpec, values []float64, samples int) metricReport {
	q1, med, q3 := quartiles(values)
	return metricReport{
		Name: spec.Name, Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound,
		Value: med, Q1: q1, Q3: q3, Values: values, Samples: samples,
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// print writes every metric by name with its unit.
func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "seed %d, %d CPUs, GOMAXPROCS %d, %s, commit %s\n", r.Seed, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range r.Workloads {
		fmt.Fprintf(tw, "\n%s\t%d rounds x %d ops, %d clients\tfailed_ratio %g (%d of %d)\t\t\n",
			w.Name, w.Rounds, w.OpsPerRound, w.Clients, w.FailedRatio, w.Failed, w.Attempted)
		for _, m := range w.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%.6g %s\tq1 %.6g  q3 %.6g\tn=%d\t\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, len(m.Values))
		}
		for _, m := range w.PerLayer {
			fmt.Fprintf(tw, "  %s\t%.6g %s\t\t\t\n", m.Name, m.Value, m.Unit)
		}
	}
	tw.Flush()
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares an end-to-end metric of a change against its base. The
// change is relative to the base's median, positive when worse. When either
// side's rounds spread wider than the bound and the two sides' rounds
// overlap, the runs cannot tell a change of the bound's size from noise.
func judge(base, change metricReport) (worse float64, verdict string) {
	worse = (change.Value - base.Value) / base.Value
	if base.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(base.Q3-base.Q1, base.Value), ratio(change.Q3-change.Q1, change.Value))
	overlap := slices.Min(base.Values) <= slices.Max(change.Values) && slices.Min(change.Values) <= slices.Max(base.Values)
	switch {
	case spread > base.Bound && overlap:
		return worse, unresolved
	case worse > base.Bound:
		return worse, regressed
	case worse < -base.Bound:
		return worse, improved
	}
	return worse, unchanged
}

func findMetric(ms []metricReport, name string) (metricReport, bool) {
	i := slices.IndexFunc(ms, func(m metricReport) bool { return m.Name == name })
	if i < 0 {
		return metricReport{}, false
	}
	return ms[i], true
}

// compare prints, for every workload and end-to-end metric the two reports
// share, both medians with quartiles, the relative change against its base,
// the bound, and a verdict; exact counts are compared for equality. It
// returns how many rows regressed, differ, or are missing from the change.
func compare(base, change *report, out io.Writer) (bad int) {
	fmt.Fprintf(out, "base: seed %d commit %s    change: seed %d commit %s\n", base.Seed, base.Commit, change.Seed, change.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tworse by\tbound\tverdict\t")
	for _, bw := range base.Workloads {
		i := slices.IndexFunc(change.Workloads, func(w workloadReport) bool { return w.Name == bw.Name })
		if i < 0 {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tmissing\t\n", bw.Name)
			bad++
			continue
		}
		cw := change.Workloads[i]
		for _, bm := range bw.EndToEnd {
			cm, ok := findMetric(cw.EndToEnd, bm.Name)
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\t\n", bw.Name, bm.Name)
				bad++
				continue
			}
			worse, verdict := judge(bm, cm)
			if verdict == regressed {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%% of %.5g\t%.0f%%\t%s\t\n",
				bw.Name, bm.Name, bm.Unit, bm.Value, bm.Q1, bm.Q3, cm.Value, cm.Q1, cm.Q3, 100*worse, bm.Value, 100*bm.Bound, verdict)
		}
		verdict := "equal"
		if bw.Failed != 0 || cw.Failed != 0 {
			verdict = "FAILED"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_ratio\t%g (%d of %d)\t%g (%d of %d)\t\t0\t%s\t\n",
			bw.Name, bw.FailedRatio, bw.Failed, bw.Attempted, cw.FailedRatio, cw.Failed, cw.Attempted, verdict)
		for _, bm := range bw.PerLayer {
			cm, ok := findMetric(cw.PerLayer, bm.Name)
			if !bm.Exact || !ok {
				continue
			}
			verdict := "equal"
			if bm.Value != cm.Value {
				verdict = "DIFFERENT"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.12g\t%.12g\t\texact\t%s\t\n", bw.Name, bm.Name, bm.Unit, bm.Value, cm.Value, verdict)
		}
	}
	tw.Flush()
	return bad
}
