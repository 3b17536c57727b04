package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// Wire-format regression tests: every message type must round-trip through
// gob as an interface value (the way the transport actually ships it) without
// losing any exported field. Adding a message type without listing it here,
// or without registering it in messages.go's init(), fails the AST
// completeness test below.

// messageSpecimens lists one zero instance of every wire message type.
func messageSpecimens() []any {
	return []any{
		ColumnPlanMsg{}, SubtreePlanMsg{}, ConfirmSplitMsg{}, DropTaskMsg{},
		ReleaseSideMsg{}, PingMsg{}, ProbeMsg{}, ProbeAckMsg{},
		ReplicateColumnMsg{}, SetTargetMsg{},
		TargetAckMsg{}, ShutdownMsg{}, RejoinRequestMsg{}, RejoinReportMsg{},
		ColumnResultMsg{}, SplitDoneMsg{}, SubtreeResultMsg{}, PongMsg{},
		WorkerErrorMsg{}, RowsRequestMsg{}, RowsResponseMsg{},
		ColDataRequestMsg{}, ColDataResponseMsg{}, ColumnCopyMsg{},
		BinProposalRequestMsg{}, BinProposalMsg{}, BinBroadcastMsg{},
		BinAckMsg{},
		CkptRecordMsg{}, LeaseGrantMsg{}, LeaseRenewMsg{}, LeaseAckMsg{},
		TakeoverMsg{},
		JoinRequestMsg{}, JoinAcceptMsg{}, JoinRejectMsg{}, JoinReadyMsg{},
		JoinAdmitMsg{}, DrainRequestMsg{}, ColumnCopyAckMsg{},
	}
}

// filler populates every exported field with a distinct non-zero value, so a
// field gob drops (or aliases) shows up as a diff. Non-zero matters: gob
// omits zero values, which would mask a lost field.
type filler struct{ n int64 }

func (f *filler) next() int64 { f.n++; return f.n }

func (f *filler) fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := f.next()
		if v.OverflowInt(x) {
			x %= 100
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := f.next()
		if v.OverflowUint(uint64(x)) {
			x %= 100
		}
		v.SetUint(uint64(x))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i), depth)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			f.fill(k, depth)
			val := reflect.New(v.Type().Elem()).Elem()
			f.fill(val, depth)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Pointer:
		if depth <= 0 {
			return // bound recursive types (core.Node)
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), depth-1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath == "" {
				f.fill(v.Field(i), depth)
			}
		}
	}
}

// exportedDiff compares two values over their exported surface only —
// unexported caches (condition masks, presorted indexes) are legitimately
// rebuilt rather than shipped — and returns the path of the first mismatch.
func exportedDiff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %v vs %v", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
		}
		if a.IsNil() {
			return ""
		}
		return exportedDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			field := a.Type().Field(i)
			if field.PkgPath != "" {
				continue
			}
			if d := exportedDiff(path+"."+field.Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := exportedDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s: key %v missing after decode", path, k)
			}
			if d := exportedDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
		return ""
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
		return ""
	}
}

// TestMessagesGobRoundTripLossless: each message type, fully populated,
// survives the interface-typed gob round trip the fabric performs.
func TestMessagesGobRoundTripLossless(t *testing.T) {
	for _, msg := range messageSpecimens() {
		name := reflect.TypeOf(msg).Name()
		t.Run(name, func(t *testing.T) {
			f := &filler{}
			v := reflect.New(reflect.TypeOf(msg)).Elem()
			f.fill(v, 3)
			in := v.Interface()

			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
				t.Fatalf("encode (is %s gob.Register'ed?): %v", name, err)
			}
			var out any
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if reflect.TypeOf(out) != reflect.TypeOf(in) {
				t.Fatalf("decoded as %T, want %T", out, in)
			}
			if d := exportedDiff(name, reflect.ValueOf(in), reflect.ValueOf(out)); d != "" {
				t.Fatalf("round trip lost data at %s", d)
			}
		})
	}
}

// TestMessageFieldsAllExported: gob silently skips unexported fields, so a
// message type carrying one would lose data without any error.
func TestMessageFieldsAllExported(t *testing.T) {
	for _, msg := range messageSpecimens() {
		tp := reflect.TypeOf(msg)
		for i := 0; i < tp.NumField(); i++ {
			if tp.Field(i).PkgPath != "" {
				t.Errorf("%s.%s is unexported: gob would silently drop it", tp.Name(), tp.Field(i).Name)
			}
		}
	}
}

// TestMessageSpecimenListIsComplete parses the message-declaring files and
// checks that every declared *Msg type is (a) covered by the round-trip test
// above and (b) registered with gob in an init(). Forgetting either fails
// here.
func TestMessageSpecimenListIsComplete(t *testing.T) {
	declared := map[string]bool{}
	registered := map[string]bool{}
	for _, src := range []string{"messages.go", "histmsg.go", "standbymsg.go", "membermsg.go"} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, src, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", src, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.TypeSpec:
				if strings.HasSuffix(node.Name.Name, "Msg") {
					declared[node.Name.Name] = true
				}
			case *ast.CallExpr:
				sel, ok := node.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Register" || len(node.Args) != 1 {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "gob" {
					return true
				}
				if lit, ok := node.Args[0].(*ast.CompositeLit); ok {
					if ident, ok := lit.Type.(*ast.Ident); ok {
						registered[ident.Name] = true
					}
				}
			}
			return true
		})
	}
	if len(declared) == 0 {
		t.Fatal("no *Msg types found — parser broken?")
	}
	covered := map[string]bool{}
	for _, msg := range messageSpecimens() {
		covered[reflect.TypeOf(msg).Name()] = true
	}
	for name := range declared {
		if !covered[name] {
			t.Errorf("%s is not in messageSpecimens — add it so the gob round-trip test covers it", name)
		}
		if !registered[name] {
			t.Errorf("%s is not gob.Register'ed in an init()", name)
		}
	}
}
