// Command taser-datagen prints Table II's dataset statistics and optionally
// dumps a dataset's event stream as CSV for external analysis.
//
// Usage:
//
//	taser-datagen                        # Table II statistics
//	taser-datagen -dump wikipedia > w.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"taser/internal/datasets"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.25, "dataset scale multiplier")
		seed  = flag.Uint64("seed", 42, "random seed")
		dump  = flag.String("dump", "", "dump one dataset's events as CSV to stdout")
	)
	flag.Parse()
	if err := datasets.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "taser-datagen: %v\n", err)
		os.Exit(2)
	}

	if *dump != "" {
		ds, ok := datasets.ByName(*dump, *scale, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "taser-datagen: unknown dataset %q\n", *dump)
			os.Exit(2)
		}
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		fmt.Fprintln(w, "event,src,dst,time,noise")
		for i, e := range ds.Graph.Events {
			fmt.Fprintf(w, "%d,%d,%d,%g,%t\n", i, e.Src, e.Dst, e.Time, ds.Noise[i])
		}
		return
	}

	fmt.Printf("Table II — dataset statistics (scale=%.2f, seed=%d)\n", *scale, *seed)
	for _, ds := range datasets.All(*scale, *seed) {
		fmt.Println(ds)
		// Extra structural diagnostics beyond Table II.
		noisy := 0
		for _, b := range ds.Noise {
			if b {
				noisy++
			}
		}
		maxDeg := 0
		for v := int32(0); int(v) < ds.Spec.NumNodes; v++ {
			if d := ds.TCSR.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		avgDeg := float64(2*len(ds.Graph.Events)) / float64(ds.Spec.NumNodes)
		fmt.Printf("           noise=%.1f%%  avg deg=%.1f  max deg=%d\n",
			100*float64(noisy)/float64(len(ds.Noise)), avgDeg, maxDeg)
	}
}
