module sias/bench

go 1.22

require sias v0.0.0

replace sias => ../
