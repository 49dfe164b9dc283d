package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The fleet wire codec: every concrete type a registered experiment's cells
// can place in the grid result slice, gob-registered so a worker can ship
// the interface-typed value back to the coordinator. Registration names are
// stable as long as the package path and type names are — coordinator and
// workers run the same binary version (enforced by the plan fingerprint
// handshake), so both sides agree.
func init() {
	gob.Register(schemeRun{})
	gob.Register(hierRun{})
	gob.Register(modelRun{})
	gob.Register(batteryRun{})
	gob.Register(compressRun{})
	gob.Register(partitionRun{})
	gob.Register(fairnessRun{})
	gob.Register(clampRun{})
	gob.Register(rbRun{})
	gob.Register(&Fig1Demo{})
	gob.Register(&Fig3Result{})
}

// cellEnvelope carries one cell's interface-typed result through gob.
type cellEnvelope struct {
	V any
}

// EncodeCellResult serializes one cell's result for transport to the
// coordinator. Training results travel without their final model (see
// fl.Result.GobEncode); everything a Render fold reads survives
// bit-exactly, so a merged distributed sweep renders byte-identically to a
// serial run.
//
// One caveat, pinned by TestGobNormalizesNegativeZeroStructFields: gob
// omits struct fields equal to their zero value, and -0.0 == 0, so a
// negative-zero float64 *struct field* (not slice element) decodes as +0.
// No cell result can produce one — every float in the domain is a
// non-negative delay/energy/accuracy or a difference of such measured
// values, and IEEE x−x rounds to +0 — and the fleet↔serial parity tests
// byte-compare real rendered sweeps end to end, which is the guarantee
// that matters.
func EncodeCellResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cellEnvelope{V: v}); err != nil {
		return nil, fmt.Errorf("experiments: encode cell result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCellResult reverses EncodeCellResult.
func DecodeCellResult(data []byte) (any, error) {
	var env cellEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("experiments: decode cell result: %w", err)
	}
	return env.V, nil
}
