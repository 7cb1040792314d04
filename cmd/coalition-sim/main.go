// Command coalition-sim regenerates the experiments in internal/sim's
// Experiments table, whose reports EXPERIMENTS.md records: the Table 3 /
// Figure 2 case study, the §-claim experiments and their extensions.
//
// Usage: coalition-sim -exp NAME, where -h lists the names and all (the
// default) runs every experiment but the bounded CI smokes, in order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drbac/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coalition-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coalition-sim", flag.ContinueOnError)
	names := []string{"all"}
	for _, x := range sim.Experiments {
		names = append(names, x.Name)
	}
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp != "all" {
		x, ok := sim.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		return x.Print(os.Stdout)
	}
	for _, x := range sim.Experiments {
		if !x.InAll {
			continue
		}
		if err := x.Print(os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		fmt.Println()
	}
	return nil
}
