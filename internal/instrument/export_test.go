package instrument

// ApplyUnprojected exposes apply, which instruments under a profile as
// given, to the external tests that compare it with Apply.
var ApplyUnprojected = apply
