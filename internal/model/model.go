// Package model provides persistence and serving for trained TreeServer
// models. A model file carries a versioned header, the table schema the
// model was trained on (column names, kinds and categorical level codings —
// required to parse prediction inputs consistently), and the model payload:
// a forest (which covers single decision trees) or a boosted ensemble.
//
// Fig. 2 of the paper shows the master writing "Model Output Files"
// consumed by client queries; this package is that interface.
package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"treeserver/internal/boost"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
)

// FormatVersion is bumped on incompatible file layout changes.
const FormatVersion = 1

// magic identifies TreeServer model files.
const magic = "TSMODEL"

// Schema captures the training table's column metadata, the contract
// prediction inputs must be parsed against.
type Schema struct {
	Names  []string
	Kinds  []dataset.Kind
	Levels [][]string
	Target int
}

// SchemaOf extracts the schema from a training table.
func SchemaOf(t *dataset.Table) Schema {
	s := Schema{Target: t.Target}
	for _, c := range t.Cols {
		s.Names = append(s.Names, c.Name)
		s.Kinds = append(s.Kinds, c.Kind)
		s.Levels = append(s.Levels, c.Levels)
	}
	return s
}

// NumCols returns the column count including the target.
func (s Schema) NumCols() int { return len(s.Names) }

// FeatureNames returns the non-target column names in order.
func (s Schema) FeatureNames() []string {
	out := make([]string, 0, s.NumCols()-1)
	for i, n := range s.Names {
		if i != s.Target {
			out = append(out, n)
		}
	}
	return out
}

// TargetLevels returns the class label names (nil for regression).
func (s Schema) TargetLevels() []string { return s.Levels[s.Target] }

// Regression reports whether the target is numeric.
func (s Schema) Regression() bool { return s.Kinds[s.Target] == dataset.Numeric }

// File is a loaded model file. Exactly one of Forest or Boost is set.
type File struct {
	Version int
	Kind    string // "forest" or "boost"
	Name    string
	Schema  Schema
	Forest  *forest.Forest
	Boost   *boost.Model
}

type header struct {
	Magic   string
	Version int
	Kind    string
	Name    string
	Schema  Schema
}

// SaveForest writes a forest (or single tree wrapped in a one-tree forest)
// with its training schema.
func SaveForest(w io.Writer, name string, f *forest.Forest, schema Schema) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: FormatVersion, Kind: "forest", Name: name, Schema: schema}); err != nil {
		return fmt.Errorf("model: writing header: %w", err)
	}
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("model: writing forest: %w", err)
	}
	return nil
}

// SaveBoost writes a boosted model with its training schema.
func SaveBoost(w io.Writer, name string, m *boost.Model, schema Schema) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: FormatVersion, Kind: "boost", Name: name, Schema: schema}); err != nil {
		return fmt.Errorf("model: writing header: %w", err)
	}
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("model: writing boost model: %w", err)
	}
	return nil
}

// Load reads any TreeServer model file.
func Load(r io.Reader) (*File, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("model: reading header: %w", err)
	}
	if h.Magic != magic {
		return nil, fmt.Errorf("model: not a TreeServer model file (magic %q)", h.Magic)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("model: unsupported version %d (want %d)", h.Version, FormatVersion)
	}
	f := &File{Version: h.Version, Kind: h.Kind, Name: h.Name, Schema: h.Schema}
	switch h.Kind {
	case "forest":
		f.Forest = &forest.Forest{}
		if err := dec.Decode(f.Forest); err != nil {
			return nil, fmt.Errorf("model: reading forest: %w", err)
		}
	case "boost":
		f.Boost = &boost.Model{}
		if err := dec.Decode(f.Boost); err != nil {
			return nil, fmt.Errorf("model: reading boost model: %w", err)
		}
	default:
		return nil, fmt.Errorf("model: unknown model kind %q", h.Kind)
	}
	return f, nil
}

// SaveForestFile / LoadFile are path conveniences. The model is written to a
// temporary file in the same directory, whose name does not match *.tsmodel,
// and renamed into place, so a directory watcher never observes a partially
// written model.
func SaveForestFile(path, name string, f *forest.Forest, schema Schema) error {
	out, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("model: creating %s: %w", path, err)
	}
	err = SaveForest(out, name, f, schema)
	if err == nil {
		// CreateTemp makes the file owner-only; a served model must stay
		// readable by the serving process.
		err = out.Chmod(0o644)
	}
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(out.Name(), path)
	}
	if err != nil {
		os.Remove(out.Name())
		return fmt.Errorf("model: writing %s: %w", path, err)
	}
	return nil
}

// LoadFile loads a model from a path.
func LoadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: opening %s: %w", path, err)
	}
	defer in.Close()
	return Load(in)
}

// unseenCode marks a categorical value absent from the training coding; the
// tree's SeenCodes check stops prediction at the current node for it
// (Appendix D's unseen-value handling).
const unseenCode = -1

// ParseRow converts one feature map (name -> raw string value) into a
// single-row table in the schema's coordinate system. Missing keys and
// empty values become missing cells; unknown categorical values get a code
// the trees treat as unseen.
func (s Schema) ParseRow(values map[string]string) (*dataset.Table, error) {
	return s.ParseRows([]map[string]string{values})
}

// ParseRows converts feature maps into a prediction table.
func (s Schema) ParseRows(rows []map[string]string) (*dataset.Table, error) {
	cols := make([]*dataset.Column, s.NumCols())
	for ci := range s.Names {
		if s.Kinds[ci] == dataset.Numeric {
			cols[ci] = dataset.NewNumeric(s.Names[ci], make([]float64, len(rows)))
		} else {
			cols[ci] = dataset.NewCategorical(s.Names[ci], make([]int32, len(rows)), s.Levels[ci])
		}
	}
	for ri, row := range rows {
		for ci, name := range s.Names {
			if ci == s.Target {
				// Target values are optional in prediction inputs; fill a
				// placeholder so the table stays structurally valid.
				if s.Kinds[ci] == dataset.Categorical {
					cols[ci].Cats[ri] = 0
				}
				continue
			}
			raw, ok := row[name]
			raw = strings.TrimSpace(raw)
			if !ok || raw == "" || raw == "NA" || raw == "?" {
				cols[ci].SetMissing(ri)
				continue
			}
			if s.Kinds[ci] == dataset.Numeric {
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("model: row %d column %q: %q is not numeric", ri, name, raw)
				}
				cols[ci].Floats[ri] = v
				continue
			}
			code := int32(unseenCode)
			for li, level := range s.Levels[ci] {
				if level == raw {
					code = int32(li)
				}
			}
			cols[ci].Cats[ri] = code
		}
	}
	return &dataset.Table{Cols: cols, Target: s.Target}, nil
}

// Prediction is one scored row.
type Prediction struct {
	Class string    `json:"class,omitempty"`
	PMF   []float64 `json:"pmf,omitempty"`
	Value float64   `json:"value,omitempty"`
}

// Predict scores parsed rows with whichever model the file holds.
func (f *File) Predict(tbl *dataset.Table) []Prediction {
	out := make([]Prediction, tbl.NumRows())
	for r := range out {
		switch {
		case f.Forest != nil && f.Schema.Regression():
			out[r].Value = f.Forest.PredictValue(tbl, r, 0)
		case f.Forest != nil:
			pmf := f.Forest.PredictPMF(tbl, r, 0)
			class := int32(0)
			for i, p := range pmf {
				if p > pmf[class] {
					class = int32(i)
				}
			}
			out[r].Class = f.Schema.TargetLevels()[class]
			out[r].PMF = pmf
		case f.Boost != nil && f.Schema.Regression():
			out[r].Value = f.Boost.PredictValue(tbl, r)
		case f.Boost != nil:
			out[r].Class = f.Schema.TargetLevels()[f.Boost.PredictClass(tbl, r)]
		}
	}
	return out
}
