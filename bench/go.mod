module cbi/bench

go 1.22

require cbi v0.0.0

replace cbi => ../
