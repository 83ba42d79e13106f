// Package stats records metric series during training runs and renders
// them as CSV, aligned text tables, and ASCII line plots (the repo's
// stand-in for the paper's matplotlib figures).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Point is one sample of a metric.
type Point struct {
	X, Y float64
}

// Series is a named, concurrency-safe sequence of points.
type Series struct {
	Name string

	mu  sync.Mutex
	pts []Point
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{x, y})
	s.mu.Unlock()
}

// Points returns a copy of the samples sorted by X.
func (s *Series) Points() []Point {
	s.mu.Lock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Last returns the final sample by X order (zero Point if empty).
func (s *Series) Last() Point {
	pts := s.Points()
	if len(pts) == 0 {
		return Point{}
	}
	return pts[len(pts)-1]
}

// WriteCSV emits "x,name1,name2,..." rows at the union of sample X values,
// holding each series at its most recent value (step interpolation).
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	xs := map[float64]bool{}
	pts := make([][]Point, len(series))
	for i, s := range series {
		pts[i] = s.Points()
		for _, p := range pts[i] {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := make([]string, 0, len(series)+1)
	header = append(header, "x")
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	cursor := make([]int, len(series))
	for _, x := range sorted {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", x))
		for i := range series {
			for cursor[i] < len(pts[i]) && pts[i][cursor[i]].X <= x {
				cursor[i]++
			}
			if cursor[i] == 0 {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%g", pts[i][cursor[i]-1].Y))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// AsciiPlot renders series as an ASCII chart of the given size. Each series
// is drawn with its own marker; a legend and axis ranges are included.
func AsciiPlot(width, height int, series ...*Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Points() {
			if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if !any {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for _, p := range s.Points() {
			if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				continue
			}
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.4g ┌%s┐\n", maxY, strings.Repeat("─", width))
	for r := range grid {
		prefix := strings.Repeat(" ", 11)
		fmt.Fprintf(&b, "%s│%s│\n", prefix, grid[r])
	}
	fmt.Fprintf(&b, "%10.4g └%s┘\n", minY, strings.Repeat("─", width))
	gap := width - 24
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s%-12.6g%s%12.6g\n", strings.Repeat(" ", 12), minX, strings.Repeat(" ", gap), maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "            %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows with aligned columns.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
