module Campaign = Dejavuzz.Campaign

let base ~iterations ~rng_seed =
  { Campaign.default_options with Campaign.iterations; rng_seed }

let minus_options ~iterations ~rng_seed =
  { (base ~iterations ~rng_seed) with Campaign.coverage_guided = false }

let full_options = base
