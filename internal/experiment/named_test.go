package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSplitComma(t *testing.T) {
	cases := map[string][]string{
		"":        nil,
		"a":       {"a"},
		"a,b":     {"a", "b"},
		"a,,b,":   {"a", "b"},
		",x":      {"x"},
		"a,b,c,d": {"a", "b", "c", "d"},
	}
	for in, want := range cases {
		got := splitComma(in)
		if len(got) != len(want) {
			t.Fatalf("splitComma(%q) = %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("splitComma(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestFig11Gain(t *testing.T) {
	rows := []Figure11Row{
		{Scores: map[string]float64{"DCRA": 1.0, "RAND-HILL": 1.1}},
		{Scores: map[string]float64{"DCRA": 2.0, "RAND-HILL": 2.0}},
	}
	if g := fig11Gain(rows); g < 0.049 || g > 0.051 {
		t.Fatalf("gain = %f, want 0.05", g)
	}
	if g := fig11Gain(nil); g != 0 {
		t.Fatalf("empty gain = %f", g)
	}
}

func TestPickResolvesNames(t *testing.T) {
	loads, err := pick("art-mcf,gzip-bzip2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 || loads[0].Name() != "art-mcf" || loads[1].Name() != "gzip-bzip2" {
		t.Fatalf("loads = %v", loads)
	}
}

func TestPickRejectsUnknownNameWithListing(t *testing.T) {
	_, err := pick("not-a-workload", nil)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "not-a-workload") {
		t.Fatalf("error does not name the offender: %s", msg)
	}
	// The error must teach the valid vocabulary.
	for _, want := range []string{"art-mcf", "gzip-bzip2", "art-mcf-swim-twolf"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error listing missing %q: %s", want, msg)
		}
	}
}

func TestWriteCompareJSON(t *testing.T) {
	rows := []CompareRow{
		{Workload: "a-b", Group: "MIX2", Scores: map[string]float64{"HILL": 1.25, "ICOUNT": 1.0}},
		{Workload: "c-d", Group: "ILP2", Scores: map[string]float64{"HILL": 2.5, "ICOUNT": 2.0}},
	}
	var buf bytes.Buffer
	if err := writeCompareJSON(&buf, "fig9", rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	var got jsonRow
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig9" || got.Workload != "a-b" || got.Scores["HILL"] != 1.25 {
		t.Fatalf("row = %+v", got)
	}
	if got.Derived != "" || got.Predicted != "" {
		t.Fatalf("compare row carries fig11 labels: %+v", got)
	}
}

func TestWriteFigure11JSON(t *testing.T) {
	rows := []Figure11Row{{
		Workload: "a-b", Group: "MEM2", Derived: "LG(L)", Predicted: "TL",
		Scores: map[string]float64{"HILL-WIPC": 1.1, "OFF-LINE": 1.2},
	}}
	var buf bytes.Buffer
	if err := writeFigure11JSON(&buf, "fig11-2t", rows); err != nil {
		t.Fatal(err)
	}
	var got jsonRow
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig11-2t" || got.Derived != "LG(L)" || got.Predicted != "TL" {
		t.Fatalf("row = %+v", got)
	}
	if got.Scores["OFF-LINE"] != 1.2 {
		t.Fatalf("scores = %v", got.Scores)
	}
}

func TestRunNamedRejectsUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := RunNamed(Default(), "fig99", RunOptions{}, &buf)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "fig9") || !strings.Contains(err.Error(), "all") {
		t.Fatalf("error does not list valid experiments: %v", err)
	}
}

func TestRunNamedRejectsUnknownWorkloadSubset(t *testing.T) {
	var buf bytes.Buffer
	err := RunNamed(Default(), "fig4", RunOptions{Workloads: "nope"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad subset error = %v", err)
	}
}

func TestRunNamedTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunNamed(Default(), "table1", RunOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "Rename reg") {
		t.Fatalf("table1 output:\n%s", buf.String())
	}
}

// TestFig9HeaderCountsSubset: fig9's header reports the workloads the
// run actually covered, not the full set's 42.
func TestFig9HeaderCountsSubset(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 2
	var buf bytes.Buffer
	if err := RunNamed(cfg, "fig9", RunOptions{Workloads: "art-mcf,gzip-bzip2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "(2 workloads)"; !strings.Contains(buf.String(), want) {
		t.Fatalf("fig9 header lacks %q:\n%s", want, buf.String())
	}
}
