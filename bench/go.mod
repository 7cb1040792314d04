module drbac/bench

go 1.22

require drbac v0.0.0

replace drbac => ../
