module llmsql/benchmark

go 1.22

require llmsql v0.0.0

replace llmsql => ../
