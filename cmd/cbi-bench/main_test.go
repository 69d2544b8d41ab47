package main

import (
	"strings"
	"testing"
)

func TestGateDocFlagsFailsOnFalseBooleans(t *testing.T) {
	doc := []byte(`{
		"identity": {"identical": true},
		"cells": [{"identical": true}, {"identical": false, "shed": 3}]
	}`)
	err := gateDocFlags(doc, "BENCH_x.json")
	if err == nil {
		t.Fatal("false identity flag must gate")
	}
	if !strings.Contains(err.Error(), ".cells[1].identical") {
		t.Fatalf("error should name the false flag's path, got: %v", err)
	}

	if err := gateDocFlags([]byte(`{"a": {"ok": true}, "n": 3}`), "BENCH_x.json"); err != nil {
		t.Fatalf("all-true doc must pass, got: %v", err)
	}
}
