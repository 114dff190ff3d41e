// Command psbench regenerates the paper's figures: for every figure of
// the evaluation section (Figs 2-10), the §4.7 trust experiment and the
// ablations, it runs the corresponding simulation and prints the x/series
// rows the paper plots. It doubles as the engine-mode load generator,
// driving the streaming engine with concurrent submitters on a virtual
// clock and reporting end-to-end throughput.
//
// It is also the repo's reproducible perf harness: named fixed-seed
// scenarios (dense-urban, sparse-rural, bursty-arrival,
// continuous-heavy, ...) run the slot pipeline and emit machine-readable
// BENCH_<scenario>.json records (see scenarios.go); CI runs them every
// push and gates on slot-latency regressions against the checked-in
// baselines under bench/.
//
// Usage:
//
//	psbench -figure all            # everything (several minutes)
//	psbench -figure fig2           # one figure at paper scale
//	psbench -figure fig3 -slots 10 # reduced horizon
//	psbench -list                  # list figure IDs
//	psbench -engine -engine-sensors 10000 -engine-slots 20
//	psbench -scenario all -json -out . -baseline bench
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	ps "repro"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure ID to regenerate, or 'all'")
		slots   = flag.Int("slots", 0, "simulation slots (0 = paper's 50)")
		seed    = flag.Int64("seed", 0, "master seed (0 = default)")
		budgets = flag.String("budgets", "", "comma-separated x-axis override")
		list    = flag.Bool("list", false, "list available figure IDs")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")

		scenarioF   = flag.String("scenario", "", "run a named perf scenario (dense-urban, sparse-rural, bursty-arrival, continuous-heavy, sharded-metro, or 'all') instead of figures")
		shardsF     = flag.Int("shards", 0, "scenario mode: override the scenario's geographic shard count (0 = scenario default; >1 runs the geo-sharded layer)")
		jsonOut     = flag.Bool("json", false, "scenario mode: write machine-readable BENCH_<scenario>.json files")
		outDir      = flag.String("out", ".", "scenario mode: output directory for BENCH_*.json")
		baselineDir = flag.String("baseline", "", "scenario mode: compare against BENCH_*.json in this directory; exit 1 on >2x normalized slot-latency regression")

		engineMode = flag.Bool("engine", false, "run the streaming-engine load generator instead of figures")
		engSensors = flag.Int("engine-sensors", 1000, "engine mode: fleet size")
		engSlots   = flag.Int("engine-slots", 50, "engine mode: slots to run")
		engQueries = flag.Int("engine-queries", 200, "engine mode: point queries submitted per slot")
		engAggs    = flag.Int("engine-aggregates", 5, "engine mode: aggregate queries submitted per slot")
		engClients = flag.Int("engine-clients", 8, "engine mode: concurrent submitter goroutines")
	)
	flag.Parse()

	if *scenarioF != "" {
		os.Exit(runScenarioMode(*scenarioF, *slots, *seed, *shardsF, *jsonOut, *outDir, *baselineDir))
	}

	if *engineMode {
		seed := *seed
		if seed == 0 {
			seed = 1
		}
		runEngineLoad(seed, *engSensors, *engSlots, *engQueries, *engAggs, *engClients)
		return
	}

	if *list {
		for _, f := range sim.Figures {
			fmt.Printf("%-22s %s\n", f.ID, f.Title)
		}
		return
	}

	opts := sim.Options{Slots: *slots, Seed: *seed}
	if *budgets != "" {
		for _, part := range strings.Split(*budgets, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psbench: bad budget %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.Budgets = append(opts.Budgets, v)
		}
	}

	var figures []sim.Figure
	if *figure == "all" {
		figures = sim.Figures
	} else {
		f, ok := sim.FigureByID(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "psbench: unknown figure %q (try -list)\n", *figure)
			os.Exit(2)
		}
		figures = []sim.Figure{f}
	}

	for _, f := range figures {
		start := time.Now()
		fmt.Printf("== %s — %s\n", f.ID, f.Title)
		for _, tab := range f.Run(opts) {
			if *csv {
				fmt.Println(tab.CSV())
			} else {
				fmt.Println(tab.Render())
			}
		}
		fmt.Printf("-- %s done in %v\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runEngineLoad drives the streaming engine on a virtual clock: every
// slot, `clients` goroutines submit a mixed point/aggregate workload
// concurrently, then one slot executes. Results are consumed by one
// goroutine per query, mirroring how real subscribers behave.
func runEngineLoad(seed int64, sensors, slots, perSlot, aggsPerSlot, clients int) {
	world := ps.NewRWMWorld(seed, sensors, ps.SensorConfig{})
	eng := ps.NewEngine(
		ps.NewAggregator(world),
		ps.WithBlockingSubmit(),
		ps.WithQueueSize(2*(perSlot+aggsPerSlot)+clients),
	)
	eng.Start()
	fmt.Printf("== engine load: %d sensors, %d slots, %d point + %d aggregate queries/slot, %d clients\n",
		sensors, slots, perSlot, aggsPerSlot, clients)

	var consumers sync.WaitGroup
	consume := func(h *ps.QueryHandle) {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for range h.Events() {
			}
		}()
	}

	w := world.Working
	start := time.Now()
	for t := 0; t < slots; t++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rnd := rng.New(seed, fmt.Sprintf("load-%d-%d", t, c))
				for i := c; i < perSlot; i += clients {
					loc := ps.Pt(rnd.Uniform(w.MinX, w.MaxX), rnd.Uniform(w.MinY, w.MaxY))
					h, err := eng.Submit(ps.PointSpec{ID: fmt.Sprintf("p%d-%d", t, i), Loc: loc, Budget: 15})
					if err != nil {
						fmt.Fprintf(os.Stderr, "psbench: submit: %v\n", err)
						os.Exit(1)
					}
					consume(h)
				}
				for i := c; i < aggsPerSlot; i += clients {
					x := rnd.Uniform(w.MinX, w.MaxX-20)
					y := rnd.Uniform(w.MinY, w.MaxY-20)
					region := ps.NewRect(x, y, x+rnd.Uniform(10, 20), y+rnd.Uniform(10, 20))
					h, err := eng.Submit(ps.AggregateSpec{ID: fmt.Sprintf("a%d-%d", t, i), Region: region, Budget: 300})
					if err != nil {
						fmt.Fprintf(os.Stderr, "psbench: submit: %v\n", err)
						os.Exit(1)
					}
					consume(h)
				}
			}(c)
		}
		wg.Wait()
		if err := eng.RunSlots(1); err != nil {
			fmt.Fprintf(os.Stderr, "psbench: slot: %v\n", err)
			os.Exit(1)
		}
	}
	consumers.Wait()
	elapsed := time.Since(start)
	eng.Stop()

	m := eng.Metrics()
	qps := float64(m.QueriesSubmitted) / elapsed.Seconds()
	fmt.Printf("%-28s %v\n", "wall time:", elapsed.Round(time.Millisecond))
	fmt.Printf("%-28s %d\n", "queries submitted:", m.QueriesSubmitted)
	fmt.Printf("%-28s %.0f\n", "queries/sec end-to-end:", qps)
	fmt.Printf("%-28s %.1f\n", "slots/sec:", float64(m.Slots)/elapsed.Seconds())
	fmt.Printf("%-28s avg %v  max %v\n", "slot latency:", m.SlotLatencyAvg.Round(time.Microsecond), m.SlotLatencyMax.Round(time.Microsecond))
	fmt.Printf("%-28s %.1f (%.1f/slot)\n", "total welfare:", m.TotalWelfare, m.TotalWelfare/float64(m.Slots))
	fmt.Printf("%-28s %d answered / %d starved\n", "deliveries:", m.Answered, m.Starved)
	fmt.Printf("%-28s %d delivered, %d dropped (%d gap frames)\n", "events:", m.EventsDelivered, m.EventsDropped, m.GapEvents)
}
