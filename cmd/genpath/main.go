// Command genpath generates the synthetic benchmark graphs of the dataset
// registry (or custom graphs from the generator families) and writes them
// as edge-list files, optionally with a shared-endpoint batch query set —
// the workload of the batch query subsystem.
//
// Usage:
//
//	genpath -dataset ep -out ep.txt            # registry dataset
//	genpath -dataset ep -scale 0.5 -out ep.txt # scaled down
//	genpath -family ba -n 10000 -davg 8 -out g.txt
//	genpath -list                              # list registry datasets
//
//	# graph plus a 64-query batch of shared-source/shared-target clusters
//	# (one "s t k" line per query, 20% exact duplicates):
//	genpath -family ba -n 10000 -out g.txt \
//	        -batch 64 -batchout q.txt -batchk 6 -batchgroup 8 -batchdup 0.2
//
//	# partition-aware set for the sharded engine: endpoints classified by
//	# the engine's hashed ownership at P=4, 30% cross-shard queries:
//	genpath -family ba -n 10000 -out g.txt \
//	        -batch 64 -batchout q.txt -batchk 6 -partition 4 -cross-frac 0.3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/workload"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "registry dataset name (see -list)")
		scale      = flag.Float64("scale", 1.0, "scale factor for the registry dataset")
		family     = flag.String("family", "", "custom generator: er, ba, power, layered, grid")
		n          = flag.Int("n", 1000, "custom: vertex count (or width for layered)")
		davg       = flag.Float64("davg", 8, "custom: average degree (er/ba/power)")
		layers     = flag.Int("layers", 4, "custom: layer count (layered) or columns (grid)")
		seed       = flag.Int64("seed", 1, "random seed")
		out        = flag.String("out", "", "output file (required unless -list)")
		list       = flag.Bool("list", false, "list registry datasets and exit")
		batch      = flag.Int("batch", 0, "also generate this many shared-endpoint batch queries")
		batchOut   = flag.String("batchout", "", "batch query output file (required with -batch)")
		batchK     = flag.Int("batchk", 6, "batch: hop constraint per query")
		batchGroup = flag.Int("batchgroup", 8, "batch: queries per shared-endpoint cluster")
		batchDup   = flag.Float64("batchdup", 0, "batch: fraction of exact-duplicate queries")
		partition  = flag.Int("partition", 0, "batch: classify endpoints by this shard count and control the intra/cross mix")
		crossFrac  = flag.Float64("cross-frac", 0.5, "batch: fraction of cross-shard queries (with -partition)")
	)
	flag.Parse()

	if *list {
		fmt.Println("name  paper |V|  paper |E|  davg  type")
		for _, d := range gen.Registry {
			fmt.Printf("%-4s  %-9s  %-9s  %-5.1f %s\n", d.Name, d.PaperV, d.PaperE, d.AvgDeg, d.Type)
		}
		return
	}
	g, err := run(*dataset, *scale, *family, *n, *davg, *layers, *seed, *out)
	if err == nil && *batch > 0 {
		if *partition > 0 {
			err = runPartition(g, *batch, *batchK, *partition, *crossFrac, *seed, *batchOut)
		} else {
			err = runBatch(g, *batch, *batchK, *batchGroup, *batchDup, *seed, *batchOut)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genpath:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, family string, n int, davg float64, layers int, seed int64, out string) (*graph.Graph, error) {
	if out == "" {
		return nil, fmt.Errorf("-out is required")
	}
	var g *graph.Graph
	switch {
	case dataset != "":
		d, err := gen.Lookup(dataset)
		if err != nil {
			return nil, err
		}
		g = d.Scale(scale).Build()
	case family != "":
		switch family {
		case "er":
			g = gen.ErdosRenyi(n, int(float64(n)*davg), seed)
		case "ba":
			g = gen.BarabasiAlbert(n, int(davg+0.5), seed)
		case "power":
			g = gen.PowerLawConfig(n, davg, 2.2, seed)
		case "layered":
			g = gen.Layered(n, layers)
		case "grid":
			g = gen.Grid(n, layers)
		default:
			return nil, fmt.Errorf("unknown family %q", family)
		}
	default:
		return nil, fmt.Errorf("one of -dataset or -family is required")
	}
	if err := graph.SaveFile(out, g); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %v to %s\n", g, out)
	return g, nil
}

// runBatch generates a shared-endpoint batch query set over g and writes
// one "s t k" line per query — the input format of benchpath's batch mode
// and of scripted POST /batch clients.
func runBatch(g *graph.Graph, count, k, groupSize int, dupFrac float64, seed int64, out string) error {
	if out == "" {
		return fmt.Errorf("-batchout is required with -batch")
	}
	queries, err := workload.GenerateBatch(g, workload.BatchOptions{
		Count:     count,
		K:         k,
		GroupSize: groupSize,
		DupFrac:   dupFrac,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, q := range queries {
		fmt.Fprintf(w, "%d %d %d\n", q.S, q.T, q.K)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d batch queries to %s\n", len(queries), out)
	return nil
}

// runPartition generates a partition-aware query set — endpoints
// classified by the sharded engine's hashed ownership at the given shard
// count, with the requested cross-shard fraction — and writes the same
// "s t k" line format as runBatch, so sharded benchmarks replay a
// reproducible routing mix.
func runPartition(g *graph.Graph, count, k, shards int, crossFrac float64, seed int64, out string) error {
	if out == "" {
		return fmt.Errorf("-batchout is required with -batch")
	}
	queries, err := workload.GeneratePartitioned(g, workload.PartitionOptions{
		Count:     count,
		K:         k,
		Shards:    shards,
		CrossFrac: crossFrac,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, q := range queries {
		fmt.Fprintf(w, "%d %d %d\n", q.S, q.T, q.K)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d partitioned queries (%d shards, %.0f%% cross) to %s\n",
		len(queries), shards, crossFrac*100, out)
	return nil
}
