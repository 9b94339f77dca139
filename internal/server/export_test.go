package server

// SetScribbleReleased turns the aliasing guard on or off. Call it only
// while no server of this process is running.
func SetScribbleReleased(on bool) { scribbleReleased = on }
