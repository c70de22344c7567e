module inferturbo/benchmark

go 1.24

require inferturbo v0.0.0

replace inferturbo => ../
