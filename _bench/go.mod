module helcfl/_bench

go 1.22

require helcfl v0.0.0

replace helcfl => ../
