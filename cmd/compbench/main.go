// Command compbench measures compression ratios of every implemented
// scheme over the synthetic PARSEC block populations, per benchmark and
// per value-pattern class — an exploration companion to Table 1.
//
//	compbench                  # ratio matrix, all schemes x all benchmarks
//	compbench -blocks 2000     # larger sample
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/trace"
)

func main() {
	blocks := flag.Int("blocks", 800, "sample blocks per benchmark")
	flag.Parse()
	if err := run(*blocks); err != nil {
		fmt.Fprintln(os.Stderr, "compbench:", err)
		os.Exit(1)
	}
}

func run(blocks int) error {
	algs := []string{"delta", "bdi", "fpc", "sfpc", "cpack", "sc2", "fvc"}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\t%s\n", strings.Join(algs, "\t"))
	totals := make(map[string][2]int) // raw, compressed
	for _, p := range trace.Profiles() {
		fmt.Fprintf(w, "%s", p.Name)
		for _, name := range algs {
			alg, err := compress.New(name)
			if err != nil {
				return err
			}
			type trainable interface{ Train([][]byte) }
			if s, ok := alg.(trainable); ok {
				var train [][]byte
				for i := 0; i < blocks; i++ {
					train = append(train, p.Content(trace.PrivateBase(i%8)+uint64(i)*7))
				}
				s.Train(train)
			}
			raw, comp := 0, 0
			var scratch [compress.BlockSize]byte
			for i := 0; i < blocks; i++ {
				b := p.Content(trace.PrivateBase(9) + uint64(i)*3)
				c := alg.AppendCompress(scratch[:0], b)
				raw += compress.BlockSize
				comp += c.SizeBytes()
			}
			t := totals[name]
			totals[name] = [2]int{t[0] + raw, t[1] + comp}
			fmt.Fprintf(w, "\t%.2f", float64(raw)/float64(comp))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "overall")
	for _, name := range algs {
		t := totals[name]
		fmt.Fprintf(w, "\t%.2f", float64(t[0])/float64(t[1]))
	}
	fmt.Fprintln(w)
	return w.Flush()
}
