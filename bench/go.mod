module trapp/bench

go 1.24

require trapp v0.0.0

replace trapp => ../
