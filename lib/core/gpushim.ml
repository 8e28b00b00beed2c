include Grt_tee.Gpushim
