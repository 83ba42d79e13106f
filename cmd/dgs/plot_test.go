package main

import (
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "x,loss,acc\n0,2.3,\n1,1.1,0.5\n2,0.7,0.8\n"
	series, err := readCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Name != "loss" || series[1].Name != "acc" {
		t.Fatalf("series wrong: %v", series)
	}
	if len(series[0].Points()) != 3 {
		t.Fatalf("loss has %d points, want 3", len(series[0].Points()))
	}
	if len(series[1].Points()) != 2 {
		t.Fatalf("acc has %d points (empty cell must be skipped), want 2", len(series[1].Points()))
	}
	if p := series[1].Last(); p.X != 2 || p.Y != 0.8 {
		t.Fatalf("acc last point %+v", p)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"x\n1\n",              // no series columns
		"x,a\nnotanumber,1\n", // bad x
		"x,a\n1,notanumber\n", // bad y
	}
	for i, in := range cases {
		if _, err := readCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}
