module npudvfs/bench

go 1.22

require npudvfs v0.0.0

replace npudvfs => ../
