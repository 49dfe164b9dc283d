package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
)

// newZeroRand gives the deterministic source used to scaffold a model whose
// parameters are immediately overwritten from the file.
func newZeroRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// Model files bundle the architecture spec with the parameter payload so a
// file is self-describing: JSON header (spec) + '\n' + ParamBytes payload.

// fileMagic guards model files.
const fileMagic = uint32(0x48454C46) // "HELF"

// SaveModel writes a self-describing model file.
func SaveModel(path string, spec ModelSpec, m *Sequential) error {
	header, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("nn: marshal spec: %w", err)
	}
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(header)))
	buf.Write(hdr[:])
	buf.Write(header)
	buf.Write(ParamBytes(m))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadModel reads a model file, rebuilds the architecture, and restores its
// parameters.
func LoadModel(path string) (ModelSpec, *Sequential, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ModelSpec{}, nil, err
	}
	if len(raw) < 8 {
		return ModelSpec{}, nil, fmt.Errorf("nn: model file too short")
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != fileMagic {
		return ModelSpec{}, nil, fmt.Errorf("nn: bad model file magic")
	}
	hlen := int(binary.LittleEndian.Uint32(raw[4:8]))
	if 8+hlen > len(raw) {
		return ModelSpec{}, nil, fmt.Errorf("nn: truncated model header")
	}
	var spec ModelSpec
	if err := json.Unmarshal(raw[8:8+hlen], &spec); err != nil {
		return ModelSpec{}, nil, fmt.Errorf("nn: decode spec: %w", err)
	}
	if err := checkSpec(spec); err != nil {
		return ModelSpec{}, nil, err
	}
	m := spec.Build(newZeroRand())
	if err := LoadParamBytes(m, raw[8+hlen:]); err != nil {
		return ModelSpec{}, nil, err
	}
	return spec, m, nil
}

// checkSpec rejects a decoded header that Build would panic on: an unknown
// kind or a non-positive dimension.
func checkSpec(s ModelSpec) error {
	switch s.Kind {
	case "mlp", "logistic", "squeezenet-mini":
	default:
		return fmt.Errorf("nn: unknown model kind %q", s.Kind)
	}
	if s.InC <= 0 || s.H <= 0 || s.W <= 0 || s.Classes <= 0 {
		return fmt.Errorf("nn: model geometry %dx%dx%d with %d classes is not positive", s.InC, s.H, s.W, s.Classes)
	}
	for _, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: non-positive hidden width %d", h)
		}
	}
	return nil
}
