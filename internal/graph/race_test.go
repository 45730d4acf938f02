//go:build race

package graph

func init() { raceBuild = true }
