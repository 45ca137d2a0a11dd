// Command tatp runs the prototype-database experiment of Section 6.4: it
// loads the TATP schema with the chosen dictionary index, runs the read-only
// transaction mix, then simulates a crash and reports the restart time.
//
// Usage:
//
//	tatp -subscribers 100000 -txns 200000 -latency 160
package main

import (
	"flag"
	"fmt"
	"os"

	"fptree/internal/bench"
)

func main() {
	var (
		subscribers = flag.Int("subscribers", 100000, "TATP subscriber count")
		txns        = flag.Int("txns", 100000, "transactions to run")
		clients     = flag.Int("clients", 8, "client goroutines")
		latency     = flag.Int("latency", 160, "emulated SCM latency in ns")
	)
	flag.Parse()

	if err := bench.Fig12TATP(os.Stdout, *subscribers, *txns, *clients, []int{*latency}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
