package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestSeriesSortedPoints(t *testing.T) {
	s := NewSeries("loss")
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	pts := s.Points()
	if len(pts) != 3 || pts[0].X != 1 || pts[2].X != 3 {
		t.Fatalf("points not sorted: %v", pts)
	}
	if s.Last().Y != 30 {
		t.Fatalf("Last = %v", s.Last())
	}
	if len(s.Points()) != 3 {
		t.Fatalf("Len = %d", len(s.Points()))
	}
}

func TestSeriesEmptyLast(t *testing.T) {
	s := NewSeries("empty")
	if p := s.Last(); p.X != 0 || p.Y != 0 {
		t.Fatalf("empty Last = %v", p)
	}
}

func TestSeriesConcurrentAdd(t *testing.T) {
	s := NewSeries("c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Add(float64(i*100+j), 1)
			}
		}(i)
	}
	wg.Wait()
	if len(s.Points()) != 800 {
		t.Fatalf("Len = %d, want 800", len(s.Points()))
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewSeries("a")
	a.Add(1, 10)
	a.Add(3, 30)
	b := NewSeries("b")
	b.Add(2, 20)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d: %v", len(lines), lines)
	}
	// x=1: a=10, b empty. x=2: a holds 10, b=20. x=3: a=30, b holds 20.
	if lines[1] != "1,10," || lines[2] != "2,10,20" || lines[3] != "3,30,20" {
		t.Fatalf("rows wrong: %v", lines[1:])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatal("no series must write nothing")
	}
}

func TestAsciiPlotContainsMarkersAndLegend(t *testing.T) {
	a := NewSeries("train-loss")
	for i := 0; i < 10; i++ {
		a.Add(float64(i), float64(10-i))
	}
	out := AsciiPlot(40, 10, a)
	if !strings.Contains(out, "*") {
		t.Fatal("plot must contain the series marker")
	}
	if !strings.Contains(out, "train-loss") {
		t.Fatal("plot must contain the legend")
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	if out := AsciiPlot(40, 10, NewSeries("x")); out != "(no data)\n" {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestAsciiPlotConstantSeries(t *testing.T) {
	s := NewSeries("flat")
	s.Add(0, 5)
	s.Add(1, 5)
	out := AsciiPlot(20, 5, s)
	if !strings.Contains(out, "*") {
		t.Fatal("constant series must still render")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("method", "acc")
	tb.AddRow("MSGD", "93.08%")
	tb.AddRow("DGS", "92.91%")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "method") {
		t.Fatalf("header line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "MSGD") || !strings.Contains(lines[3], "DGS") {
		t.Fatal("rows missing")
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("short row must render")
	}
}

func TestWriteSVGBasic(t *testing.T) {
	a := NewSeries("loss")
	for i := 0; i < 20; i++ {
		a.Add(float64(i), 10.0/float64(i+1))
	}
	b := NewSeries("acc")
	for i := 0; i < 20; i++ {
		b.Add(float64(i), float64(i)/20)
	}
	var sb strings.Builder
	if err := WriteSVG(&sb, SVGOptions{Title: "Figure <2>", XLabel: "epoch", YLabel: "loss"}, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Fatalf("want 2 polylines, got %d", strings.Count(out, "<polyline"))
	}
	if !strings.Contains(out, "Figure &lt;2&gt;") {
		t.Fatal("title must be XML-escaped")
	}
	if !strings.Contains(out, ">loss<") || !strings.Contains(out, ">acc<") {
		t.Fatal("legend entries missing")
	}
}

func TestWriteSVGLogScaleSkipsNonPositive(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, -1) // must be skipped in log scale
	s.Add(1, 10)
	s.Add(2, 100)
	var sb strings.Builder
	if err := WriteSVG(&sb, SVGOptions{LogY: true}, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<polyline") {
		t.Fatal("positive points must still render")
	}
}

func TestWriteSVGEmptySeries(t *testing.T) {
	var sb strings.Builder
	if err := WriteSVG(&sb, SVGOptions{}, NewSeries("empty")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Fatal("empty chart must still be a valid SVG")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234567: "1.2e+06",
		150:     "150",
		0.5:     "0.5",
		0.0001:  "1.0e-04",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}
