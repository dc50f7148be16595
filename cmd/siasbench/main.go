// Command siasbench regenerates the paper's evaluation artifacts (Tables 1
// and 2, Figures 3-6) on the simulated storage stack.
//
// Usage:
//
//	siasbench -exp table1|table2|fig3|fig4|fig5|fig6|all [-wh N] [-dur SECONDS]
//
// Each experiment prints rows/series in the layout of the corresponding
// table or figure of "SIAS-Chains: Snapshot Isolation Append Storage Chains"
// (the full paper behind the EDBT 2014 demo "SIAS-V in Action").
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sias/internal/engine"
	"sias/internal/exp"
	"sias/internal/simclock"
)

func main() {
	expID := flag.String("exp", "all", "experiment: table1, table2, fig3, fig4, fig5, fig6, all")
	wh := flag.Int("wh", 0, "override warehouse count (single-run experiments)")
	dur := flag.Int("dur", 0, "override run duration in virtual seconds")
	flag.Parse()

	run := func(id string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "[%s took %.1fs real]\n", id, time.Since(start).Seconds())
		}()
		switch id {
		case "table1":
			cfg := exp.DefaultTable1Config()
			if *wh > 0 {
				cfg.Warehouses = *wh
			}
			if *dur > 0 {
				cfg.Durations = []simclock.Duration{simclock.Duration(*dur) * simclock.Second}
			}
			rows, err := exp.RunTable1(cfg)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatTable1(rows))
		case "table2":
			cfg := exp.DefaultTable2Config()
			if *dur > 0 {
				cfg.Duration = simclock.Duration(*dur) * simclock.Second
			}
			pts, err := exp.RunSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatSweep("Table 2: TPC-C on HDD — Throughput (NOTPM) and Response Time (sec.)", pts))
		case "fig3", "fig4":
			cfg := exp.DefaultBlocktraceConfig()
			if *wh > 0 {
				cfg.Warehouses = *wh
			}
			if *dur > 0 {
				cfg.Duration = simclock.Duration(*dur) * simclock.Second
			}
			kind := engine.KindSIAS
			if id == "fig4" {
				kind = engine.KindSI
			}
			res, rendered, err := exp.RunBlocktrace(kind, cfg)
			if err != nil {
				return err
			}
			fmt.Print(rendered)
			fmt.Printf("throughput: %.0f NOTPM, avg response %s\n", res.Metrics.NOTPM, res.Metrics.AvgResponse)
			for i, w := range res.Wear {
				fmt.Printf("ssd%d wear: %d erases (max/block %d), %d pages relocated by device GC\n",
					i, w.TotalErases, w.MaxErases, w.Relocated)
			}
		case "fig5":
			cfg := exp.DefaultFigure5Config()
			if *dur > 0 {
				cfg.Duration = simclock.Duration(*dur) * simclock.Second
			}
			pts, err := exp.RunSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatSweep("Figure 5: TPC-C on two-SSD RAID-0 — NOTPM and response time vs warehouses", pts))
		case "fig6":
			cfg := exp.DefaultFigure6Config()
			if *dur > 0 {
				cfg.Duration = simclock.Duration(*dur) * simclock.Second
			}
			pts, err := exp.RunSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Print(exp.FormatSweep("Figure 6: TPC-C on six-SSD RAID-0 — NOTPM and response time vs warehouses", pts))
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = []string{"fig3", "fig4", "table1", "table2", "fig5", "fig6"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "siasbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
