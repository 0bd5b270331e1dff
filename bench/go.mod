module expresspass/bench

go 1.22

require expresspass v0.0.0

replace expresspass => ../
