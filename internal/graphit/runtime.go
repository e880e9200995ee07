package graphit

import (
	"fmt"
	"sync"

	"d2x/internal/graphgen"
	"d2x/internal/minic"
)

// RegisterGraphNatives installs the graph-input natives the generated
// runtime prologue (__graphit_load) consumes. The generated code builds
// its own CSR; the host only serves the raw edge list described by a
// graph-spec string (see package graphgen). Parsed graphs are cached per
// registry, like an mmap'd input file. A build's registry is shared by
// every session running it, so the cache is safe for concurrent VMs.
func RegisterGraphNatives(nats *minic.Natives) {
	var cache sync.Map // spec -> *graphgen.Graph
	load := func(spec string) (*graphgen.Graph, error) {
		if g, ok := cache.Load(spec); ok {
			return g.(*graphgen.Graph), nil
		}
		g, err := graphgen.Parse(spec)
		if err != nil {
			return nil, err
		}
		v, _ := cache.LoadOrStore(spec, g)
		return v.(*graphgen.Graph), nil
	}
	intT, strT := minic.IntType, minic.StringType

	nats.Register(&minic.Native{
		Name: "graph_spec_num_vertices",
		Sig:  minic.Signature{Params: []*minic.Type{strT}, Result: intT},
		Handler: func(call *minic.NativeCall) (minic.Value, error) {
			g, err := load(call.Args[0].S)
			if err != nil {
				return minic.NullVal(), err
			}
			return minic.IntVal(int64(g.N)), nil
		},
	})
	nats.Register(&minic.Native{
		Name: "graph_spec_num_edges",
		Sig:  minic.Signature{Params: []*minic.Type{strT}, Result: intT},
		Handler: func(call *minic.NativeCall) (minic.Value, error) {
			g, err := load(call.Args[0].S)
			if err != nil {
				return minic.NullVal(), err
			}
			return minic.IntVal(int64(g.NumEdges())), nil
		},
	})
	edgeEnd := func(idx int) minic.NativeHandler {
		return func(call *minic.NativeCall) (minic.Value, error) {
			g, err := load(call.Args[0].S)
			if err != nil {
				return minic.NullVal(), err
			}
			i := call.Args[1].I
			if i < 0 || i >= int64(len(g.Edges)) {
				return minic.NullVal(), fmt.Errorf("edge index %d out of range [0, %d)", i, len(g.Edges))
			}
			return minic.IntVal(int64(g.Edges[i][idx])), nil
		}
	}
	nats.Register(&minic.Native{
		Name:    "graph_spec_edge_src",
		Sig:     minic.Signature{Params: []*minic.Type{strT, intT}, Result: intT},
		Handler: edgeEnd(0),
	})
	nats.Register(&minic.Native{
		Name:    "graph_spec_edge_dst",
		Sig:     minic.Signature{Params: []*minic.Type{strT, intT}, Result: intT},
		Handler: edgeEnd(1),
	})
	nats.Register(&minic.Native{
		Name: "graph_spec_edge_weight",
		Sig:  minic.Signature{Params: []*minic.Type{strT, intT}, Result: intT},
		Handler: func(call *minic.NativeCall) (minic.Value, error) {
			g, err := load(call.Args[0].S)
			if err != nil {
				return minic.NullVal(), err
			}
			i := call.Args[1].I
			if i < 0 || i >= int64(len(g.Edges)) {
				return minic.NullVal(), fmt.Errorf("edge index %d out of range [0, %d)", i, len(g.Edges))
			}
			return minic.IntVal(int64(g.Weight(int(i)))), nil
		},
	})
}
