package experiments

import (
	"context"
	"errors"

	"helcfl/internal/grid"
)

var errSkip = errors.New("skip")

// missingRun is produced by a cell but never registered: the exhaustiveness
// hole fleet mode would hit at decode time.
type missingRun struct{ X int }

func anyResult() any { return nil }

func opaqueRun(context.Context) (any, error) { return nil, nil }

// forwarded pins the tuple-forward shape: `return helper(ctx)` where the
// helper's concrete first result is what crosses the wire.
func forwarded(context.Context) (*ptrRun, error) { return &ptrRun{}, nil }

func cells() []grid.Cell {
	return []grid.Cell{
		{
			Experiment: "good",
			Run:        func(context.Context) (any, error) { return goodRun{Acc: 1}, nil },
		},
		{
			Experiment: "ptr",
			Run: func(context.Context) (any, error) {
				if false {
					return nil, errSkip // the nil error path is not a result type
				}
				return &ptrRun{}, nil
			},
		},
		{
			Experiment: "forward",
			Run:        func(ctx context.Context) (any, error) { return forwarded(ctx) },
		},
		{
			Experiment: "missing",
			Run:        func(context.Context) (any, error) { return missingRun{}, nil }, // want "cell result type missingRun has no gob.Register in the wire codec"
		},
		{
			Experiment: "iface",
			Run:        func(context.Context) (any, error) { return anyResult(), nil }, // want "cell Run returns an interface-typed result"
		},
		{
			Experiment: "opaque",
			Run:        opaqueRun, // want "cell Run is not a function literal"
		},
	}
}

// missingGeneric reaches the wire only through a generic constructor.
type missingGeneric struct{ Y float64 }

// genericCell pins the generic-constructor shape: the Run result is the
// constructor's type parameter, checked at each instantiation.
func genericCell[T any](body func() (T, error)) grid.Cell {
	return grid.Cell{
		Experiment: "generic",
		Run:        func(context.Context) (any, error) { return body() },
	}
}

func genericCells() []grid.Cell {
	return []grid.Cell{
		genericCell(func() (goodRun, error) { return goodRun{}, nil }),
		genericCell(func() (missingGeneric, error) { return missingGeneric{}, nil }), // want "cell result type missingGeneric has no gob.Register in the wire codec"
		genericCell(func() (any, error) { return nil, nil }),                         // want "cell constructor genericCell instantiated with interface-typed result any"
	}
}
