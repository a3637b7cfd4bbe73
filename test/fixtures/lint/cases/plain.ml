let x = 1
