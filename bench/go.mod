module zcache/bench

go 1.22

require zcache v0.0.0

replace zcache => ../
