// Command tstrain trains a model directly from a CSV file on an in-process
// TreeServer cluster — the shortest path from data to a servable model.
//
//	tstrain -csv customers.csv -target Default -job rf -trees 50 \
//	        -out default.tsmodel -eval 0.2
//	tsserve -model default.tsmodel
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"treeserver/internal/dataset"
	"treeserver/internal/traincli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tstrain: ")
	f := traincli.TstrainFlags(flag.CommandLine)
	flag.Parse()
	if f.CSV == "" || f.Target == "" {
		flag.Usage()
		os.Exit(2)
	}

	file, err := os.Open(f.CSV)
	if err != nil {
		log.Fatalf("opening CSV: %v", err)
	}
	opts := dataset.CSVOptions{Target: f.Target}
	if f.ForceCategorical != "" {
		opts.ForceCategorical = strings.Split(f.ForceCategorical, ",")
	}
	full, err := dataset.ReadCSV(file, opts)
	file.Close()
	if err != nil {
		log.Fatalf("parsing CSV: %v", err)
	}

	train, test := dataset.SplitStratified(full, f.Eval, f.Seed)
	fmt.Printf("loaded %d rows x %d columns (%s)", full.NumRows(), full.NumCols(), full.Task())
	if test != nil {
		fmt.Printf("; holding out %d rows", test.NumRows())
	}
	fmt.Println()

	f.Telemetry()
	fst, err := f.Train(train)
	if err != nil {
		log.Fatal(err)
	}
	if test != nil {
		if train.Task() == dataset.Classification {
			fmt.Printf("held-out accuracy: %.2f%%\n", fst.Accuracy(test)*100)
		} else {
			fmt.Printf("held-out RMSE: %.4f\n", fst.RMSE(test))
		}
	}
	if err := f.WriteModel(fst, train); err != nil {
		log.Fatal(err)
	}
}
