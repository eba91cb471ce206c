// Package repro is a from-scratch Go reproduction of "Squirrel: Scatter
// Hoarding VM Image Contents on IaaS Compute Nodes" (HPDC 2014).
//
// The implementation lives under internal/ (see DESIGN.md for the package
// map); runnable entry points are under cmd/ (squirrelctl's subcommands
// are the narrated scenarios); bench_test.go in this directory regenerates
// every table and figure of the paper's evaluation.
package repro
