module slice/benchmark

go 1.22

require slice v0.0.0

replace slice => ../
