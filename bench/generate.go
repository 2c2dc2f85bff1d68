package main

// zz_generated_preds.go registers generated evaluators for the predicates
// listed in preds.manifest.

//go:generate go run repro/cmd/minisynchc -manifest -pkg main -o zz_generated_preds.go preds.manifest
