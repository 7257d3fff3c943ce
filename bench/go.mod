module blockhead/bench

go 1.22

require blockhead v0.0.0

replace blockhead => ../
