include Two_level.Make (struct
  let name = "solution1"
  let tag = "sol1"
  let fanout ~block:_ = 2
end)
