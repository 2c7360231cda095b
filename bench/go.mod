module medchain/bench

go 1.22

require medchain v0.0.0

replace medchain => ../
