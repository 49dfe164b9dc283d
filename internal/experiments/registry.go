package experiments

import (
	"fmt"
	"io"

	"helcfl/internal/grid"
)

// This file is the campaign registry: every CLI experiment is a Definition
// that expands to a Plan — a flat list of grid cells plus a Render that
// folds the runner's results into the paper's figures and tables. Because
// cells are keyed by their computation (see grid.Cell.Key), composePlans
// deduplicates shared work: "all" runs each of its ~50 unique training
// cells exactly once even though fig2, table1, fig3 and the headline all
// consume overlapping subsets.

// Output is where a Plan's Render writes: W receives the rendered charts
// and tables; WriteArtifact (optional, nil to skip) stores named files such
// as the Fig. 2 CSVs.
type Output struct {
	W             io.Writer
	WriteArtifact func(name string, data []byte) error
}

// Plan is an expanded experiment: the cells to execute (in any order, on
// any worker count) and the fold from their fixed-index results to human
// output.
type Plan struct {
	Cells  []grid.Cell
	Render func(res []any, out Output) error
}

// Options carries the per-experiment knobs the CLI exposes.
type Options struct {
	// Seeds is the seed count for the "seeds" experiment.
	Seeds int
}

// Definition names one runnable experiment.
type Definition struct {
	Name string
	Plan func(p Preset, seed int64, opt Options) (*Plan, error)
}

// definitions is the ordered registry backing Registry and
// LookupExperiment.
var definitions = []Definition{
	{"fig1", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return fig1Plan(p, seed), nil
	}},
	{"fig2", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return fig2Plan(p, seed), nil
	}},
	{"table1", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return table1Plan(p, seed), nil
	}},
	{"fig3", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return fig3Plan(p, seed), nil
	}},
	{"ablation", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return ablationPlan(p, seed)
	}},
	{"seeds", func(p Preset, seed int64, opt Options) (*Plan, error) {
		return seedsPlan(p, seed, opt.Seeds)
	}},
	{"budget", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return budgetPlan(p, seed)
	}},
	{"battery", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return eachSetting(func(s Setting) (*Plan, error) { return BatteryPlan(p, s, seed, batterySelections) })
	}},
	{"hier", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return hierPlan(p, seed)
	}},
	{"all", func(p Preset, seed int64, _ Options) (*Plan, error) {
		return allPlan(p, seed)
	}},
}

// Registry returns the experiment definitions in display order.
func Registry() []Definition {
	out := make([]Definition, len(definitions))
	copy(out, definitions)
	return out
}

// LookupExperiment finds a definition by CLI name.
func LookupExperiment(name string) (Definition, bool) {
	for _, d := range definitions {
		if d.Name == name {
			return d, true
		}
	}
	return Definition{}, false
}

// composePlans merges sub-plans into one, deduplicating cells by key —
// equal keys name the same computation, so each runs once and every
// sub-plan's Render sees its own view of the shared results, in order.
func composePlans(subs ...*Plan) *Plan {
	var merged []grid.Cell
	index := map[string]int{}
	views := make([][]int, len(subs))
	for si, sub := range subs {
		view := make([]int, len(sub.Cells))
		for ci, cell := range sub.Cells {
			k := cell.Key()
			gi, ok := index[k]
			if !ok {
				gi = len(merged)
				index[k] = gi
				merged = append(merged, cell)
			}
			view[ci] = gi
		}
		views[si] = view
	}
	return &Plan{
		Cells: merged,
		Render: func(res []any, out Output) error {
			for si, sub := range subs {
				local := make([]any, len(views[si]))
				for ci, gi := range views[si] {
					local[ci] = res[gi]
				}
				if err := sub.Render(local, out); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// settingsBoth is the standard two-panel sweep order.
var settingsBoth = []Setting{IID, NonIID}

func fig1Plan(p Preset, seed int64) *Plan {
	return &Plan{
		Cells: Fig1Cells(p, seed),
		Render: func(res []any, out Output) error {
			demo, err := AssembleFig1Demo(res)
			if err != nil {
				return err
			}
			maxG, dvfsG := demo.RenderGantt()
			fmt.Fprintln(out.W, maxG)
			fmt.Fprintln(out.W, dvfsG)
			maxTbl, dvfsTbl := demo.Render()
			fmt.Fprintln(out.W, maxTbl)
			fmt.Fprintln(out.W, dvfsTbl)
			fmt.Fprintf(out.W, "compute energy: %.2f J at max frequency → %.2f J with Algorithm 3 (%.1f%% saved)\n",
				demo.MaxFreq.ComputeEnergy, demo.WithDVFS.ComputeEnergy,
				(1-demo.WithDVFS.ComputeEnergy/demo.MaxFreq.ComputeEnergy)*100)
			return nil
		},
	}
}

// assembleFig2Panels rebuilds both settings' panels from a two-panel result
// layout (IID cells first, then NonIID).
func assembleFig2Panels(res []any) (map[Setting]*Fig2Result, error) {
	figs := map[Setting]*Fig2Result{}
	o := 0
	for _, s := range settingsBoth {
		f, err := AssembleFig2(s, res[o:o+len(SchemeOrder)])
		if err != nil {
			return nil, err
		}
		figs[s] = f
		o += len(SchemeOrder)
	}
	return figs, nil
}

// fig2BothCells lists both settings' Fig. 2 panels, IID first.
func fig2BothCells(p Preset, seed int64) []grid.Cell {
	var cells []grid.Cell
	for _, s := range settingsBoth {
		cells = append(cells, Fig2Cells(p, s, seed)...)
	}
	return cells
}

func fig2Plan(p Preset, seed int64) *Plan {
	return &Plan{
		Cells: fig2BothCells(p, seed),
		Render: func(res []any, out Output) error {
			figs, err := assembleFig2Panels(res)
			if err != nil {
				return err
			}
			for _, s := range settingsBoth {
				chart, tbl := RenderFig2(figs[s])
				fmt.Fprintln(out.W, chart)
				fmt.Fprintln(out.W, tbl)
				if out.WriteArtifact != nil {
					name := fmt.Sprintf("fig2_%s_%s.csv", p.Name, s)
					if err := out.WriteArtifact(name, []byte(Fig2CSV(figs[s]))); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

func table1Plan(p Preset, seed int64) *Plan {
	return &Plan{
		Cells: fig2BothCells(p, seed),
		Render: func(res []any, out Output) error {
			figs, err := assembleFig2Panels(res)
			if err != nil {
				return err
			}
			tbl := BuildTableI(p, figs)
			for _, blk := range tbl.Settings {
				fmt.Fprintln(out.W, blk.Render())
				for i, target := range blk.Targets {
					sp := blk.Speedups(i)
					if len(sp) == 0 {
						continue
					}
					fmt.Fprintf(out.W, "  speedups at %.0f%%:", target*100)
					for _, scheme := range SchemeOrder {
						if v, ok := sp[scheme]; ok {
							fmt.Fprintf(out.W, " %s %.1f%%", scheme, v)
						}
					}
					fmt.Fprintln(out.W)
				}
				fmt.Fprintln(out.W)
			}
			return nil
		},
	}
}

func fig3Plan(p Preset, seed int64) *Plan {
	slackRich := SlackRich(p)
	var cells []grid.Cell
	for _, s := range settingsBoth {
		cells = append(cells, Fig3Cells(p, s, seed)...)
	}
	cells = append(cells, Fig3Cells(slackRich, IID, seed)...)
	return &Plan{
		Cells: cells,
		Render: func(res []any, out Output) error {
			o := 0
			for _, s := range settingsBoth {
				f3, err := AssembleFig3(p, s, res[o:o+len(fig3Schemes)])
				if err != nil {
					return err
				}
				o += len(fig3Schemes)
				bars, tbl := f3.Render()
				fmt.Fprintln(out.W, bars)
				fmt.Fprintln(out.W, tbl)
			}
			fmt.Fprintln(out.W, "slack-rich regime (maximal DVFS savings; see DESIGN.md):")
			f3u, err := AssembleFig3(slackRich, IID, res[o:o+len(fig3Schemes)])
			if err != nil {
				return err
			}
			_, tbl := f3u.Render()
			fmt.Fprintln(out.W, tbl)
			return nil
		},
	}
}

// sectionPlan prints a section header ("" for none) and the table its fold
// makes from the cells' results.
func sectionPlan(header string, cells []grid.Cell, fold func(res []any) (fmt.Stringer, error)) *Plan {
	return &Plan{
		Cells: cells,
		Render: func(res []any, out Output) error {
			if len(res) != len(cells) {
				return fmt.Errorf("experiments: section %q got %d results, want %d", header, len(res), len(cells))
			}
			tbl, err := fold(res)
			if err != nil {
				return err
			}
			if header != "" {
				fmt.Fprintln(out.W, header)
			}
			fmt.Fprintln(out.W, tbl)
			return nil
		},
	}
}

// eachSetting composes one sub-plan per data setting, IID first.
func eachSetting(sub func(s Setting) (*Plan, error)) (*Plan, error) {
	subs := make([]*Plan, len(settingsBoth))
	for i, s := range settingsBoth {
		var err error
		if subs[i], err = sub(s); err != nil {
			return nil, err
		}
	}
	return composePlans(subs...), nil
}

// Ablation sweep values — the CLI's canonical design-study grid.
var (
	ablationEtas      = []float64{0.5, 0.7, 0.9, 0.99}
	ablationFractions = []float64{0.05, 0.1, 0.2}
	ablationDropouts  = []float64{0, 0.1, 0.3}
	ablationSigmas    = []float64{0, 0.3, 0.6}
	ablationLambdas   = []float64{0.5, 1.0}
	ablationKs        = []int{1, 2, 5, 10}
	ablationModels    = []string{"logistic", "mlp"}
	ablationAlphas    = []float64{0.2, 1.0, 5.0}
	ablationLevels    = []int{0, 16, 8, 4, 2}

	ablationClampRounds    = 100
	ablationRBRounds       = 100
	ablationFairnessRounds = 200
)

func ablationPlan(p Preset, seed int64) (*Plan, error) {
	lambdas := normalizeLambdas(ablationLambdas)
	rb, err := rbStudy(p, seed, ablationRBRounds, ablationKs)
	if err != nil {
		return nil, err
	}
	model, err := modelStudy(p, IID, seed, ablationModels)
	if err != nil {
		return nil, err
	}
	levels, err := dvfsLevelsStudy(p, IID, seed, ablationLevels)
	if err != nil {
		return nil, err
	}
	fairness, err := fairnessStudy(p, seed, ablationFairnessRounds)
	if err != nil {
		return nil, err
	}
	return composePlans(
		etaStudy(p, NonIID, seed, ablationEtas),
		fractionStudy(p, IID, seed, ablationFractions),
		clampStudy(p, IID, seed, ablationClampRounds),
		CompressionPlan(p, IID, seed, DefaultCompressors()),
		dropoutStudy(p, IID, seed, ablationDropouts),
		fadingStudy(p, IID, seed, ablationSigmas),
		sectionPlan("loss-aware utility extension …", LossAwareCells(p, NonIID, seed, lambdas),
			func(res []any) (fmt.Stringer, error) {
				ext, err := AssembleLossAwareExtension(p, NonIID, lambdas, res)
				if err != nil {
					return nil, err
				}
				return ext.Render(), nil
			}),
		rb,
		model,
		partitionStudy(p, seed, ablationAlphas),
		levels,
		fairness,
	), nil
}

func seedsPlan(p Preset, seed int64, n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("seed count %d must be positive", n)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return eachSetting(func(s Setting) (*Plan, error) { return multiSeedStudy(p, s, seeds) })
}

// budgetSecs are the deadline budgets swept by the "budget" experiment —
// roughly 1/8 and 1/2 of a full campaign's duration.
var budgetSecs = []float64{180, 720}

func budgetPlan(p Preset, seed int64) (*Plan, error) {
	subs := make([]*Plan, len(budgetSecs))
	for i, budget := range budgetSecs {
		var err error
		subs[i], err = eachSetting(func(s Setting) (*Plan, error) { return deadlineStudy(p, s, seed, budget) })
		if err != nil {
			return nil, err
		}
	}
	return composePlans(subs...), nil
}

// batterySelections is the per-device budget in units of max-frequency
// selections.
const batterySelections = 8

// headlinePlan consumes the Fig. 2 and Fig. 3 results (shared with their
// own plans via composePlans dedup) and renders the headline summary.
func headlinePlan(p Preset, seed int64) *Plan {
	cells := fig2BothCells(p, seed)
	for _, s := range settingsBoth {
		cells = append(cells, Fig3Cells(p, s, seed)...)
	}
	return &Plan{
		Cells: cells,
		Render: func(res []any, out Output) error {
			figs, err := assembleFig2Panels(res[:2*len(SchemeOrder)])
			if err != nil {
				return err
			}
			fig3s := map[Setting]*Fig3Result{}
			o := 2 * len(SchemeOrder)
			for _, s := range settingsBoth {
				f3, err := AssembleFig3(p, s, res[o:o+len(fig3Schemes)])
				if err != nil {
					return err
				}
				fig3s[s] = f3
				o += len(fig3Schemes)
			}
			tbl := BuildTableI(p, figs)
			fmt.Fprintln(out.W, BuildHeadline(figs, tbl, fig3s).Render())
			return nil
		},
	}
}

// allPlan is the full campaign. Every sub-plan contributes its cells once —
// fig2, table1, fig3 and the headline overlap heavily, and the slack-rich
// Fig. 3 regime is included (historically the standalone fig3 command ran
// it but "all" silently dropped it).
func allPlan(p Preset, seed int64) (*Plan, error) {
	ablation, err := ablationPlan(p, seed)
	if err != nil {
		return nil, err
	}
	return composePlans(
		fig1Plan(p, seed),
		fig2Plan(p, seed),
		table1Plan(p, seed),
		fig3Plan(p, seed),
		ablation,
		headlinePlan(p, seed),
	), nil
}
