module github.com/lodviz/lodviz/bench/e2e

go 1.22

require github.com/lodviz/lodviz v0.0.0

replace github.com/lodviz/lodviz => ../..
