module segshare/benchmark

go 1.24

require segshare v0.0.0

replace segshare => ../
