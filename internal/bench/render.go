package bench

import (
	"fmt"
	"io"
	"slices"
	"unicode/utf8"
)

// Render prints rows as text: the title, then one table per Group in
// first-appearance order — a line per Variant, a column per Metric (headed
// "metric (unit)"), "-" where the grid has no cell.
func Render(w io.Writer, title string, rows []Row) {
	fmt.Fprintln(w, title)
	var groups []string
	for _, r := range rows {
		if !slices.Contains(groups, r.Group) {
			groups = append(groups, r.Group)
		}
	}
	for _, g := range groups {
		var variants, metrics []string
		cells := map[[2]string]string{}
		width := map[string]int{} // per column; "" is the variant column
		for _, r := range rows {
			if r.Group != g {
				continue
			}
			if !slices.Contains(variants, r.Variant) {
				variants = append(variants, r.Variant)
				width[""] = max(width[""], utf8.RuneCountInString(r.Variant))
			}
			if !slices.Contains(metrics, r.Metric) {
				metrics = append(metrics, r.Metric)
				head := r.Metric
				if r.Unit != "" {
					head += " (" + r.Unit + ")"
				}
				cells[[2]string{"", r.Metric}] = head
				width[r.Metric] = utf8.RuneCountInString(head)
			}
			cell := r.format()
			cells[[2]string{r.Variant, r.Metric}] = cell
			width[r.Metric] = max(width[r.Metric], utf8.RuneCountInString(cell))
		}
		fmt.Fprintln(w)
		if g != "" {
			fmt.Fprintln(w, g)
		}
		for _, v := range append([]string{""}, variants...) {
			fmt.Fprintf(w, "%-*s", width[""], v) // fmt pads by rune count
			for _, m := range metrics {
				cell, ok := cells[[2]string{v, m}]
				if !ok {
					cell = "-"
				}
				fmt.Fprintf(w, "  %*s", width[m], cell)
			}
			fmt.Fprintln(w)
		}
	}
}

// format prints a value the way its unit is read: four decimals for an MRR
// or a duration in seconds, none for a count, flag or rate, two otherwise.
func (r Row) format() string {
	switch r.Unit {
	case "MRR", "s":
		return fmt.Sprintf("%.4f", r.Value)
	case "ΔMRR":
		return fmt.Sprintf("%+.4f", r.Value)
	case "", "1/s":
		return fmt.Sprintf("%.0f", r.Value)
	case "%":
		return fmt.Sprintf("%.1f", r.Value)
	}
	return fmt.Sprintf("%.2f", r.Value)
}
