package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cachier/internal/bench"
	"cachier/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	var ten []time.Duration
	for i := 1; i <= 10; i++ {
		ten = append(ten, time.Duration(i))
	}
	for _, c := range []struct {
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{ten, 50, 5},
		{ten, 95, 10},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 1, 1},
		{ten, 100, 10},
		{ten[:4], 95, 4}, // fig6's four ops a round: the slowest
		{ten[:1], 50, 1},
		{nil, 50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v), which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.5, 3.25, 8, 1, 7.75}, 2.125, 7.75, 9.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.values)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", c.values, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	values := []float64{3, 1, 2}
	quartiles(values)
	if values[0] != 3 {
		t.Error("quartiles reordered its argument")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "benchmark.op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "sim.run", StartNS: 10, EndNS: 40, Parent: 0},       // sibling
		{Name: "core.annotate", StartNS: 50, EndNS: 90, Parent: 0}, // sibling, itself a parent
		{Name: "parc.parse", StartNS: 55, EndNS: 65, Parent: 2},    // nested
		{Name: "parc.parse", StartNS: 60, EndNS: 70, Parent: 2},    // overlaps its sibling
		{Name: "benchmark.op", StartNS: 200, EndNS: 230, Parent: -1, OpID: 1},
		{Name: "sim.run", StartNS: 190, EndNS: 210, Parent: 5, OpID: 1}, // sticks out of its parent
	}
	want := []int64{30, 30, 25, 10, 10, 20, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	byLayer, opTime := layerSelfTimes(spans)
	if opTime != 130 {
		t.Errorf("op time = %d, want 130", opTime)
	}
	for layer, ns := range map[string]int64{"benchmark": 50, "sim": 50, "core": 25, "parc": 20} {
		if byLayer[layer] != ns {
			t.Errorf("layer %s self time = %d, want %d", layer, byLayer[layer], ns)
		}
	}
	var rec *spanRecorder
	rec.end(rec.begin("x.y", -1, 0)) // a nil recorder records nothing and does not panic
}

// tinySizes keep every path of the serve workloads but almost none of the
// work: more programs than hot programs, more requests than keys.
var tinySizes = serveSizes{programs: 24, hotPrograms: 8, hotRequests: 400, churnRequests: 300, traceSample: 6}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	build := func(seed int64) [][]request {
		var out [][]request
		for _, w := range newServeWorkloads(seed, tinySizes, 2) {
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			out = append(out, w.reqs)
		}
		return out
	}
	same := func(a, b []request) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
				return false
			}
		}
		return true
	}
	first, again, other := build(7), build(7), build(8)
	for i, name := range []string{"serve_cold", "serve_hot", "serve_churn"} {
		if len(first[i]) == 0 {
			t.Errorf("%s: no requests", name)
		}
		if !same(first[i], again[i]) {
			t.Errorf("%s: the same seed gave different request bytes", name)
		}
		if same(first[i], other[i]) {
			t.Errorf("%s: different seeds gave the same request bytes", name)
		}
	}
}

func TestFormatVariantsHashAlike(t *testing.T) {
	w := newServeWorkloads(3, tinySizes, 1)[2]
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	variants := 0
	for _, r := range w.reqs {
		if bytes.Equal(r.body, w.body(r.key)) {
			continue
		}
		variants++
		var sent struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(r.body, &sent); err != nil {
			t.Fatal(err)
		}
		base := w.corpus[r.key/numEndpoints]
		if sent.Source == base {
			t.Fatal("a variant request carries the unmodified source")
		}
		a, err := serve.CanonicalProgram(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serve.CanonicalProgram(sent.Source)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash {
			t.Fatalf("a formatting variant hashes to %s, its program to %s", b.Hash, a.Hash)
		}
	}
	if variants == 0 {
		t.Error("serve_churn sent no formatting variants")
	}
}

// contract is BENCHMARK.json at the root of the repo.
type contract struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMetricTablesMatchContract(t *testing.T) {
	c := readContract(t)
	check := func(kind string, specs []metricSpec, listed []contractMetric) {
		if len(specs) != len(listed) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(specs), len(listed))
			return
		}
		for i, spec := range specs {
			if got := (contractMetric{spec.Name, spec.Unit, spec.Better, spec.Bound}); got != listed[i] {
				t.Errorf("%s metric %d: %+v here, %+v in BENCHMARK.json", kind, i, got, listed[i])
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd)
	check("per_layer", perLayer, c.PerLayer)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestSmoke runs the whole benchmark, one round of almost no work, and
// checks that every workload and metric BENCHMARK.json names comes out once
// on every workload, correct, under a well-formed name.
func TestSmoke(t *testing.T) {
	port := bench.MatMul()
	opts := options{
		workload: "all", seed: 5, seconds: 0.001, endToEnd: true, traced: true,
		sizes: tinySizes,
		fig6: &fig6Workload{
			regenerate: func() ([]*bench.Row, error) {
				row, err := bench.RunBenchmark(port)
				return []*bench.Row{row}, err
			},
			ports:       []*bench.Benchmark{port},
			opsPerRound: 1,
		},
		minRounds: 1, setupMin: 1, setupMax: 1,
	}
	rep, spans, err := measure(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c := readContract(t)
	if len(rep.Workloads) != len(c.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(rep.Workloads), len(c.Workloads))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range rep.Workloads {
		if w.Name != c.Workloads[i].Name || !wellFormed.MatchString(w.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, w.Name, c.Workloads[i].Name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.Name, w.Failed, w.Attempted)
		}
		for kind, pair := range map[string]struct {
			got  []metricReport
			want []contractMetric
		}{"end_to_end": {w.EndToEnd, c.EndToEnd}, "per_layer": {w.PerLayer, c.PerLayer}} {
			seen := make(map[string]int)
			for _, m := range pair.got {
				seen[m.Name]++
				if !wellFormed.MatchString(m.Name) {
					t.Errorf("%s: malformed metric name %q", w.Name, m.Name)
				}
			}
			for _, m := range pair.want {
				if seen[m.Name] != 1 {
					t.Errorf("%s: %s metric %s emitted %d times", w.Name, kind, m.Name, seen[m.Name])
				}
			}
			if len(seen) != len(pair.want) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", w.Name, len(seen), kind, len(pair.want))
			}
		}
		for _, m := range w.EndToEnd {
			if m.Value <= 0 || m.Samples == 0 || len(m.Values) == 0 {
				t.Errorf("%s: end-to-end metric %s = %g over %d rounds of %d samples", w.Name, m.Name, m.Value, len(m.Values), m.Samples)
			}
		}
	}

	// In the span file as a whole, parents still point at their children's
	// enclosing spans, and every workload's self times account for the
	// whole of its ops.
	selfSum, opTime := make(map[string]int64), make(map[string]int64)
	for i, self := range selfTimes(spans) {
		s := spans[i]
		selfSum[s.Workload] += self
		if s.Parent < 0 {
			opTime[s.Workload] += s.EndNS - s.StartNS
		} else if p := spans[s.Parent]; p.Workload != s.Workload || p.OpID != s.OpID || p.StartNS > s.StartNS || p.EndNS < s.EndNS {
			t.Fatalf("span %d (%s of %s) is not inside its parent %d (%s of %s)", i, s.Name, s.Workload, s.Parent, p.Name, p.Workload)
		}
	}
	for _, name := range []string{"fig6", "probe.fig6", "probe.corpus", "serve_cold", "serve_hot", "serve_churn"} {
		if opTime[name] == 0 || selfSum[name] != opTime[name] {
			t.Errorf("%s: self times sum to %d ns, op time is %d ns", name, selfSum[name], opTime[name])
		}
	}
	// The result line carries every metric of the workload it reports.
	var line struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(rep.Workloads[1])), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("result line: %+v", line)
	}

	// A report compared with itself is unchanged everywhere; one whose
	// exact count moved is not.
	dir := t.TempDir()
	base := filepath.Join(dir, "report-a.json")
	if err := rep.write(base); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-compare", base, base}, &out, io.Discard); code != 0 {
		t.Errorf("-compare of a report with itself exits %d:\n%s", code, &out)
	}
	if strings.Contains(out.String(), regressed) || strings.Contains(out.String(), "DIFFERENT") || !strings.Contains(out.String(), unchanged) {
		t.Errorf("-compare of a report with itself:\n%s", &out)
	}
	for i, m := range rep.Workloads[0].PerLayer {
		if m.Name == "sim.cycles_total" {
			rep.Workloads[0].PerLayer[i].Value++
		}
	}
	moved := filepath.Join(dir, "report-b.json")
	if err := rep.write(moved); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-compare", base, moved}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("-compare after an exact count moved exits %d:\n%s", code, &out)
	}
}

func TestJudge(t *testing.T) {
	m := func(better string, values ...float64) metricReport {
		r := summarise(metricSpec{Name: "m", Unit: "ms", Better: better, Bound: 0.10}, values, 1)
		return r
	}
	for _, c := range []struct {
		name         string
		base, change metricReport
		want         string
	}{
		{"same", m("lower", 100, 101, 102), m("lower", 100, 101, 102), unchanged},
		{"within the bound", m("lower", 100, 101, 102), m("lower", 105, 106, 107), unchanged},
		{"slower", m("lower", 100, 101, 102), m("lower", 120, 121, 122), regressed},
		{"faster", m("lower", 100, 101, 102), m("lower", 80, 81, 82), improved},
		{"less throughput", m("higher", 100, 101, 102), m("higher", 80, 81, 82), regressed},
		{"more throughput", m("higher", 100, 101, 102), m("higher", 120, 121, 122), improved},
		{"wide and overlapping", m("lower", 80, 100, 130), m("lower", 90, 115, 140), unresolved},
		{"wide but apart", m("lower", 80, 100, 130), m("lower", 150, 190, 240), regressed},
	} {
		if _, got := judge(c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) exits %d, want 2", args, code)
		}
	}
	if code := run([]string{"-workload", "nonesuch", "-trace", "0"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("an unknown workload exits %d, want 1", code)
	}
}

func TestFailuresAreCounted(t *testing.T) {
	port := bench.MatMul()
	regenerate := func() ([]*bench.Row, error) {
		row, err := bench.RunBenchmark(port)
		return []*bench.Row{row}, err
	}
	fig6 := &fig6Workload{regenerate: regenerate, ports: []*bench.Benchmark{port}, opsPerRound: 1}
	if err := fig6.setup(); err != nil {
		t.Fatal(err)
	}
	fig6.regenerate = func() ([]*bench.Row, error) {
		rows, err := regenerate()
		rows[0].Cycles[bench.VariantCachier]++
		return rows, err
	}
	if rs := fig6.round(); rs.failed != 1 || rs.ops != 1 {
		t.Errorf("fig6 with one wrong cell: %d of %d ops failed, want 1 of 1", rs.failed, rs.ops)
	}

	hot := newServeWorkloads(9, tinySizes, 2)[1]
	if err := hot.setup(); err != nil {
		t.Fatal(err)
	}
	if rs := hot.round(); rs.failed != 0 || rs.counts.hits != rs.ops {
		t.Errorf("serve_hot: %d of %d ops failed, %d hits", rs.failed, rs.ops, rs.counts.hits)
	}
	if failed := hot.verify(); failed != 0 {
		t.Errorf("serve_hot: %d sampled responses differ from the library path", failed)
	}
	for k, body := range hot.first {
		hot.first[k] = append(bytes.Clone(body), ' ')
		break
	}
	if failed := hot.verify(); failed != 1 {
		t.Errorf("serve_hot with one tampered response: verify counts %d, want 1", failed)
	}
	hot.want = func(d string) bool { return d == "miss" } // the wrong prediction
	if rs := hot.round(); rs.failed < rs.ops {
		t.Errorf("serve_hot predicted as misses: %d of %d ops failed, want all", rs.failed, rs.ops)
	}
}
