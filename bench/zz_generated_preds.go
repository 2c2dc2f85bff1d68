// Code generated by minisynchc. DO NOT EDIT.
//
// minisynchc -manifest preds.manifest

package main

import autosynch "repro"

func init() {
	// pbuf: count + k <= cap || stop
	autosynch.RegisterGenerated(autosynch.GeneratedPred{
		Src:    "count + k <= cap || stop",
		Shared: []autosynch.GenVar{{Name: "cap"}, {Name: "count"}, {Name: "stop", Bool: true}},
		Locals: []autosynch.GenVar{{Name: "k"}},
		Eval: func(c *autosynch.GenCells, locals []int64) bool {
			return (((c.I[1].Get() + locals[0]) <= c.I[0].Get()) || c.B[0].Get())
		},
		TagCanon: "cap - count >= $0 || stop == 1",
		Keys: []autosynch.GenKeyFn{
			func(locals []int64) int64 { return locals[0] },
		},
	})
	// pbuf: count >= num
	autosynch.RegisterGenerated(autosynch.GeneratedPred{
		Src:    "count >= num",
		Shared: []autosynch.GenVar{{Name: "count"}},
		Locals: []autosynch.GenVar{{Name: "num"}},
		Eval: func(c *autosynch.GenCells, locals []int64) bool {
			return (c.I[0].Get() >= locals[0])
		},
		TagCanon: "count >= $0",
		Keys: []autosynch.GenKeyFn{
			func(locals []int64) int64 { return locals[0] },
		},
	})
}
