package perfbench

/** Minimal JSON writer for results and traces (no library on the classpath
  * is guaranteed to stay, so the benchmark carries its own).
  */
object Json {
  def render(v: Any): String = {
    val sb = new StringBuilder
    write(v, sb)
    sb.toString
  }

  private def write(v: Any, sb: StringBuilder): Unit = v match {
    case null                 => sb ++= "null"
    case s: String            => quote(s, sb)
    case b: Boolean           => sb ++= b.toString
    case i: Int               => sb ++= i.toString
    case l: Long              => sb ++= l.toString
    case d: Double            =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      sb ++= d.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(k.toString, sb); sb += ':'; write(x, sb)
      }
      sb += '}'
    case xs: Iterable[_]      =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; write(x, sb) }
      sb += ']'
    case other                => quote(other.toString, sb)
  }

  private def quote(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }
}
