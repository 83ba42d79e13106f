package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// svgPalette holds the series colours (colour-blind-safe categorical set).
var svgPalette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB",
}

// SVGOptions configures WriteSVG.
type SVGOptions struct {
	// Width and Height are the image size in pixels (defaults 640×400).
	Width, Height int
	// Title, XLabel and YLabel annotate the chart.
	Title, XLabel, YLabel string
	// LogY plots the y axis in log10 scale (positive values only).
	LogY bool
}

// WriteSVG renders the series as an SVG line chart — the repository's
// publication-style counterpart of the terminal ASCII plots, used by
// `dgs plot` and `dgs exp -out` to regenerate the paper's figures as
// image files.
func WriteSVG(w io.Writer, opt SVGOptions, series ...*Series) error {
	if opt.Width <= 0 {
		opt.Width = 640
	}
	if opt.Height <= 0 {
		opt.Height = 400
	}
	const marginL, marginR, marginT, marginB = 60, 20, 36, 46
	plotW := float64(opt.Width - marginL - marginR)
	plotH := float64(opt.Height - marginT - marginB)

	// Data ranges.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	val := func(y float64) (float64, bool) {
		if opt.LogY {
			if y <= 0 {
				return 0, false
			}
			return math.Log10(y), true
		}
		return y, true
	}
	for _, s := range series {
		for _, p := range s.Points() {
			y, ok := val(p.Y)
			if !ok || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if !any {
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	px := func(x float64) float64 { return float64(marginL) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(marginT) + (1-(y-minY)/(maxY-minY))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		opt.Width, opt.Height, opt.Width, opt.Height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>`+"\n",
			opt.Width/2, xmlEscape(opt.Title))
	}

	// Axes box and gridlines with tick labels.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	const ticks = 5
	for i := 0; i <= ticks; i++ {
		fx := minX + (maxX-minX)*float64(i)/ticks
		fy := minY + (maxY-minY)*float64(i)/ticks
		x := px(fx)
		y := py(fy)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			x, marginT, x, float64(marginT)+plotH)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, float64(marginL)+plotW, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+16, formatTick(fx))
		label := fy
		if opt.LogY {
			label = math.Pow(10, fy)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, formatTick(label))
	}
	if opt.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
			marginL+int(plotW/2), opt.Height-8, xmlEscape(opt.XLabel))
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
			marginT+int(plotH/2), marginT+int(plotH/2), xmlEscape(opt.YLabel))
	}

	// Series polylines and legend.
	for si, s := range series {
		color := svgPalette[si%len(svgPalette)]
		var pathPts []string
		for _, p := range s.Points() {
			y, ok := val(p.Y)
			if !ok || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			pathPts = append(pathPts, fmt.Sprintf("%.1f,%.1f", px(p.X), py(y)))
		}
		if len(pathPts) > 0 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
				strings.Join(pathPts, " "), color)
		}
		ly := marginT + 14 + 16*si
		fmt.Fprintf(&b, `<line x1="%.0f" y1="%d" x2="%.0f" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
			float64(marginL)+plotW-110, ly, float64(marginL)+plotW-86, ly, color)
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			float64(marginL)+plotW-80, ly+4, xmlEscape(s.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatTick renders an axis value compactly.
func formatTick(v float64) string {
	a := math.Abs(v)
	switch {
	case a != 0 && (a >= 1e5 || a < 1e-3):
		return fmt.Sprintf("%.1e", v)
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// xmlEscape escapes text content for SVG.
func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
